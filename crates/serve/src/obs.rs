//! Observability for the trace service: the `serve.*` metric family.
//!
//! Traffic counters (connections, requests by opcode, bytes in/out)
//! and per-opcode latency histograms are recorded per request;
//! `serve.inflight` is a gauge whose high-water mark records the
//! deepest the admission gate ever got, and `serve.reject.busy`
//! counts requests the gate refused — together they characterise the
//! server under load the way §4.2 characterises the tracer's time
//! cost. `serve.blocks.decoded`/`.skipped` measure the predicate
//! pushdown: skipped blocks were proven irrelevant from the index
//! alone and never decoded or shipped. Rows in `docs/METRICS.md` are
//! kept honest by the `metrics_doc_sync` test.

use crate::wire::op;

wrl_obs::metrics! {
    /// Counters, gauges and histograms for the trace service.
    #[derive(Clone)]
    pub struct ServeObs {
        pub connections: counter "serve.connections", "connections", "§3.4",
            "Connections the trace service accepted.";
        requests_catalog: counter "serve.requests.catalog", "requests", "§3.4",
            "Catalog requests served.";
        requests_fetch: counter "serve.requests.fetch", "requests", "§3.4",
            "Raw block-range fetch requests served.";
        requests_query: counter "serve.requests.query", "requests", "§3.4",
            "Windowed predicate-pushdown queries served.";
        requests_metrics: counter "serve.requests.metrics", "requests", "§3.4",
            "Metrics-snapshot requests served.";
        latency_catalog: histogram "serve.latency.catalog", "ns", "§4.2",
            "Catalog request service time, ending at the sealed frame.";
        latency_fetch: histogram "serve.latency.fetch", "ns", "§4.2",
            "Raw block-range fetch service time, ending at the sealed frame.";
        latency_query: histogram "serve.latency.query", "ns", "§4.2",
            "Query service time (prune + decode + filter + frame), ending at the sealed frame.";
        latency_metrics: histogram "serve.latency.metrics", "ns", "§4.2",
            "Metrics-snapshot service time, ending at the sealed frame.";
        pub bytes_in: counter "serve.bytes.in", "bytes", "§3.4",
            "Frame bytes read from clients.";
        pub bytes_out: counter "serve.bytes.out", "bytes", "§3.4",
            "Frame bytes written to clients.";
        pub inflight: gauge "serve.inflight", "requests", "§3.4",
            "Requests executing right now; high-water is the deepest the admission gate got.";
        pub reject_busy: counter "serve.reject.busy", "requests", "§3.4",
            "Requests answered Busy by the max-inflight admission gate.";
        pub wire_errors: counter "serve.errors.wire", "errors", "§4.3",
            "Request frames rejected as malformed or CRC-damaged.";
        pub blocks_decoded: counter "serve.blocks.decoded", "blocks", "§3.2",
            "Store blocks decoded to answer queries.";
        pub blocks_skipped: counter "serve.blocks.skipped", "blocks", "§3.2",
            "Store blocks predicate pushdown proved irrelevant (never decoded).";
        pub cache_hits: counter "serve.query.cache.hits", "blocks", "§3.2",
            "Windowed-query blocks served from the per-archive decoded-block cache.";
        pub cache_misses: counter "serve.query.cache.misses", "blocks", "§3.2",
            "Windowed-query blocks decoded on a cache miss (and cached).";
        pub reactor_wakeups: counter "serve.reactor.wakeups", "wakeups", "§3.4",
            "Cross-thread waker firings that interrupted an event-loop poll wait.";
        pub reactor_readiness: counter "serve.reactor.readiness", "events", "§3.4",
            "Readiness events the pollers delivered to the event loops.";
        pub reactor_partial_read: counter "serve.reactor.partial.read", "reads", "§3.4",
            "Readability passes that ended with a request frame still incomplete.";
        pub reactor_partial_write: counter "serve.reactor.partial.write", "writes", "§3.4",
            "Writability passes that flushed only part of a pending response frame.";
        pub reactor_stalls_cut: counter "serve.reactor.stalls.cut", "connections", "§3.4",
            "Connections severed for exhausting a mid-frame read or write stall budget.";
    }
}

impl ServeObs {
    /// Counts one served request of the given opcode and records its
    /// service time; opcodes with no metric row are ignored.
    pub fn record_request(&self, opcode: u8, nanos: u64) {
        let (requests, latency) = match opcode {
            op::CATALOG => (&self.requests_catalog, &self.latency_catalog),
            op::FETCH => (&self.requests_fetch, &self.latency_fetch),
            op::QUERY => (&self.requests_query, &self.latency_query),
            op::METRICS => (&self.requests_metrics, &self.latency_metrics),
            _ => return,
        };
        requests.inc();
        latency.record(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_and_counts_by_opcode() {
        let a = ServeObs::register();
        let b = ServeObs::register();
        let before = a.requests_query.get();
        b.record_request(op::QUERY, 1234);
        b.record_request(0x55, 1); // unknown opcodes are ignored
        assert_eq!(a.requests_query.get(), before + 1);
    }
}
