//! The sink stack and the one-pass entry points: feed N composed
//! sinks from one pass over a source.
//!
//! A [`Stack`] holds the sinks and routes every parsed event to each
//! of them, counting the event once. Sinks share no state and no hook
//! can abort the pass, so a sink that latches a fault (its
//! [`AnalysisSink::finish`] returns the [`SinkError`], which becomes
//! its entry in the report) can never corrupt or abort its siblings.
//! The `tracer.sink` chaos site holds that contract under seeded
//! injected failures.
//!
//! A stack is a [`TraceSink`], so it rides the one
//! [`wrl_trace::Driver`] like any other sink, whatever the source:
//!
//! * **a word stream** — [`analyze_words`];
//! * **a store** — [`analyze_store`]: the block reader feeds the
//!   driver, whose sink is the stack itself; with more workers, each
//!   worker drives the store into its own round-robin share of the
//!   sinks;
//! * **a live machine run** — the harness's `run_analyzed` feeds the
//!   driver from the machine's drain callback.

use std::thread;

use wrl_isa::Width;
use wrl_store::{drive, FarmCfg, StoreError, TraceStore};
use wrl_trace::{Driver, ParseStats, Space, TraceParser, TraceSink, Wants};

use crate::obs::TracerObs;
use crate::sink::{AnalysisSink, SinkError, SinkReport};

/// An ordered set of analysis sinks, fed together from one parse.
/// Implements [`TraceSink`], so a stack rides anything that feeds
/// one — the driver, `parse_all`, a tee beside a simulator.
#[derive(Default)]
pub struct Stack {
    sinks: Vec<Box<dyn AnalysisSink + Send>>,
    /// Events routed to every sink, a run of fetches counting one per
    /// fetch.
    events: u64,
    obs: Option<TracerObs>,
}

impl std::fmt::Debug for Stack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stack")
            .field("sinks", &self.names())
            .finish()
    }
}

impl Stack {
    /// An empty stack.
    pub fn new() -> Stack {
        Stack::default()
    }

    /// Appends a sink and returns the stack (builder style).
    pub fn with(mut self, sink: impl AnalysisSink + Send + 'static) -> Stack {
        self.push(sink);
        self
    }

    /// Appends a sink.
    pub fn push(&mut self, sink: impl AnalysisSink + Send + 'static) {
        self.push_boxed(Box::new(sink));
    }

    /// Appends an already-boxed sink.
    pub fn push_boxed(&mut self, sink: Box<dyn AnalysisSink + Send>) {
        self.sinks.push(sink);
    }

    /// Attaches the `tracer.*` metrics, recorded when a pass
    /// finishes.
    pub fn attach_obs(&mut self, obs: TracerObs) {
        self.obs = Some(obs);
    }

    /// Number of sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// `true` if the stack holds no sinks.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// The sinks' display names, in stack order.
    pub fn names(&self) -> Vec<String> {
        self.sinks.iter().map(|s| s.name()).collect()
    }

    /// Finalises every sink into the pass report. A sink that latched
    /// a fault mid-pass reports its typed error instead of a result.
    pub fn finish(mut self, parse: ParseStats, words: u64) -> StackReport {
        let report = StackReport {
            reports: self.sinks.iter_mut().map(|s| s.finish()).collect(),
            parse,
            words,
            applied: self.events * self.sinks.len() as u64,
        };
        if let Some(obs) = &self.obs {
            obs.record(&report, self.sinks.len());
        }
        report
    }
}

impl TraceSink for Stack {
    fn irefs(&mut self, vaddr: u32, n: u32, space: Space, idle: bool) {
        self.events += u64::from(n);
        for s in &mut self.sinks {
            s.irefs(vaddr, n, space, idle);
        }
    }

    fn dref(&mut self, vaddr: u32, store: bool, width: Width, space: Space) {
        self.events += 1;
        for s in &mut self.sinks {
            s.dref(vaddr, store, width, space);
        }
    }

    fn ctx_switch(&mut self, asid: u8) {
        self.events += 1;
        for s in &mut self.sinks {
            s.ctx_switch(asid);
        }
    }

    fn mode_transition(&mut self, generating: bool) {
        self.events += 1;
        for s in &mut self.sinks {
            s.mode_transition(generating);
        }
    }

    /// The most any sink wants: nothing for an empty stack (the
    /// driver then skips the parse), words if any sink wants the word
    /// hook.
    fn wants(&self) -> Wants {
        self.sinks
            .iter()
            .map(|s| s.wants())
            .max()
            .unwrap_or(Wants::Nothing)
    }

    fn word(&mut self, pos: u64) {
        for s in &mut self.sinks {
            s.word(pos);
        }
    }
}

/// What one pass over one source produced: per-sink reports (or the
/// typed error the sink latched), the parse statistics of the pass,
/// and the pass shape.
#[derive(Debug)]
pub struct StackReport {
    /// One entry per sink, in stack order.
    pub reports: Vec<Result<SinkReport, SinkError>>,
    /// Statistics of the pass's parse (the same for every worker).
    pub parse: ParseStats,
    /// Raw trace words in the pass.
    pub words: u64,
    /// Event×sink applications routed: the events of the pass (a run
    /// of fetches counting once per fetch) × sinks.
    pub applied: u64,
}

impl StackReport {
    /// Sinks that surfaced a typed error.
    pub fn failed(&self) -> usize {
        self.reports.iter().filter(|r| r.is_err()).count()
    }

    /// The successful report of sink `i`, if any.
    pub fn ok(&self, i: usize) -> Option<&SinkReport> {
        self.reports.get(i).and_then(|r| r.as_ref().ok())
    }

    /// Renders every sink deterministically: its
    /// [`SinkReport::render`] block, or one `sink <name> FAILED: ...`
    /// line if it latched a typed error.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.reports {
            match r {
                Ok(rep) => out.push_str(&rep.render()),
                Err(e) => out.push_str(&format!("sink {} FAILED: {}\n", e.sink, e.what)),
            }
        }
        out
    }
}

/// One-pass analysis of an in-memory word stream: a single
/// incremental parse with `parser` feeds every sink in `stack`.
pub fn analyze_words(parser: TraceParser, words: &[u32], stack: Stack) -> StackReport {
    let mut driver = Driver::new(parser, stack);
    driver.feed(words);
    let (run, stack) = driver.finish();
    stack.finish(run.parse, run.words)
}

/// One-pass analysis of a [`TraceStore`].
///
/// The sinks are dealt round-robin into `cfg.workers` shares (at most
/// one per sink). Share 0 is driven on the calling thread and every
/// other share on a thread of its own, each through its own
/// [`drive`]: its own block reader and its own parser over the
/// store's shared tables. Every share sees the whole stream in order,
/// so the spread is invisible in the reports and every share counts
/// the same events; the sinks come back in their original order. A
/// block error is returned typed, the first in worker order.
pub fn analyze_store(
    store: &TraceStore,
    stack: Stack,
    cfg: FarmCfg,
) -> Result<StackReport, StoreError> {
    let Stack { sinks, events, obs } = stack;
    let n = sinks.len();
    let workers = cfg.workers.clamp(1, n.max(1));
    let mut shares: Vec<Stack> = (0..workers).map(|_| Stack::new()).collect();
    for (i, sink) in sinks.into_iter().enumerate() {
        shares[i % workers].sinks.push(sink);
    }
    let mut shares = shares.into_iter();
    let first = shares.next().expect("at least one share");
    let runs = thread::scope(|scope| {
        let others: Vec<_> = shares
            .map(|share| scope.spawn(|| drive(store, share)))
            .collect();
        let mut runs = vec![drive(store, first)];
        for h in others {
            runs.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        runs
    });
    let runs = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let (run, passed) = (runs[0].0.clone(), runs[0].1.events);
    let mut shares: Vec<_> = runs
        .into_iter()
        .map(|(r, share)| {
            assert_eq!(r, run, "every worker drives the same pass");
            assert_eq!(share.events, passed, "every worker counts the same events");
            share.sinks.into_iter()
        })
        .collect();
    let sinks = (0..n)
        .map(|i| {
            shares[i % workers]
                .next()
                .expect("a share returns its sinks")
        })
        .collect();
    let stack = Stack {
        sinks,
        events: events + passed,
        obs,
    };
    Ok(stack.finish(run.parse, run.words))
}
