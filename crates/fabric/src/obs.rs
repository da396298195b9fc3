//! Observability for the fabric coordinator: the `fabric.*` family.
//!
//! The fabric's measures of merit mirror the single node's pushdown
//! counters one level up: how many shards a query *didn't* touch
//! (`fabric.units.pruned_shards` stays meaningful only relative to
//! `fabric.subqueries`), and how often the failover path actually
//! ran. `fabric.unavailable` is the coordinator's loss tally — a
//! non-zero row means some query exhausted every endpoint of a shard
//! and answered with the typed `unavailable` error instead of data.
//! Rows in `docs/METRICS.md` are kept honest by `metrics_doc_sync`.

wrl_obs::metrics! {
    /// Live tallies for the fabric coordinator.
    #[derive(Clone)]
    pub struct FabricObs {
        pub queries: counter "fabric.queries", "requests", "§3.4",
            "Scatter-gather queries coordinated across shards.";
        pub subqueries: counter "fabric.subqueries", "requests", "§3.4",
            "Sub-queries dispatched to shard nodes (retries included).";
        pub blocks_pruned: counter "fabric.blocks.pruned", "blocks", "§3.2",
            "Blocks pruned coordinator-side from manifest proofs alone.";
        pub failover: counter "fabric.failover", "requests", "§4.3",
            "Sub-requests retried on a replica after a transport failure.";
        pub unavailable: counter "fabric.unavailable", "requests", "§4.3",
            "Sub-requests that exhausted every endpoint of a shard.";
        pub remote_errors: counter "fabric.errors.remote", "errors", "§4.3",
            "Typed shard errors forwarded upstream with the shard named.";
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let a = FabricObs::register();
        let b = FabricObs::register();
        a.queries.inc();
        assert_eq!(a.queries.get(), b.queries.get(), "same underlying counter");
    }
}
