//! Combined event loop: user timers interleaved with flow completions.

use crate::calq::CalendarQueue;
use crate::faults::{FaultInjector, FaultPlan, FaultRecord};
use crate::flow::{FlowId, FlowSpec};
use crate::flownet::FlowNet;
use crate::time::{SimDuration, SimTime};
use crate::trace::{track, TraceSink};
use std::sync::Arc;

/// An opaque, `Copy` event payload for simulator timers.
///
/// Higher layers encode their own meaning into the three fields. Keeping the
/// payload flat (instead of making [`Simulator`] generic) lets independent
/// crates (collectives, AIACC engine, baselines) share one simulator without
/// threading a common event enum through every signature.
///
/// # Example
/// ```
/// use aiacc_simnet::Token;
/// const KIND_GRAD_READY: u32 = 1;
/// let t = Token { kind: KIND_GRAD_READY, a: 3, b: 17 };
/// assert_eq!(t.a, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Token {
    /// Event family (defined by the scheduling layer).
    pub kind: u32,
    /// First argument (e.g. a worker rank).
    pub a: u32,
    /// Second argument (e.g. a gradient or operation id).
    pub b: u64,
}

impl Token {
    /// Convenience constructor.
    pub const fn new(kind: u32, a: u32, b: u64) -> Self {
        Token { kind, a, b }
    }

    /// The scope stamped into this token's high kind bits by
    /// [`Simulator::set_token_scope`] (`0` = unscoped).
    pub const fn scope(self) -> u32 {
        self.kind >> TOKEN_SCOPE_SHIFT
    }

    /// The token kind with any scope stamp removed.
    pub const fn base_kind(self) -> u32 {
        self.kind & TOKEN_KIND_MASK
    }
}

/// Bit position of the scope stamp inside [`Token::kind`].
pub const TOKEN_SCOPE_SHIFT: u32 = 16;
/// Mask selecting the scope-free base kind.
pub const TOKEN_KIND_MASK: u32 = (1 << TOKEN_SCOPE_SHIFT) - 1;

/// The `(b, offset)` list of a timer run ([`Simulator::schedule_run`]),
/// checked once to be non-decreasing in its offsets. Cloning shares the
/// list, so one can serve every worker of an iteration.
///
/// # Example
/// ```
/// use aiacc_simnet::{RunOffsets, SimDuration};
/// let offs = RunOffsets::new(vec![(7, SimDuration::ZERO), (3, SimDuration::from_nanos(5))]);
/// assert_eq!(offs.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunOffsets(Arc<[(u64, SimDuration)]>);

impl RunOffsets {
    /// Validates and wraps `offs`.
    ///
    /// # Panics
    /// Panics if an offset is smaller than the one before it.
    pub fn new(offs: Vec<(u64, SimDuration)>) -> Self {
        assert!(
            offs.windows(2).all(|w| w[0].1 <= w[1].1),
            "timer run offsets must be non-decreasing"
        );
        RunOffsets(offs.into())
    }

    /// Number of timers in a run over this list.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// One timer-queue entry: a single token, or the queued element of a
/// lazily expanded run (an index into [`Simulator`]'s run slab).
#[derive(Debug, Clone, Copy)]
enum Timer {
    One(Token),
    Run(u32),
}

/// A timer run being expanded: element `next` is queued under stamp `seq`
/// at `start + (base + offs[next].1 · scale)`.
#[derive(Debug, Clone)]
struct TimerRun {
    offs: RunOffsets,
    start: SimTime,
    base: SimDuration,
    scale: f64,
    /// Token kind, scope stamp included.
    kind: u32,
    a: u32,
    next: usize,
    seq: u64,
}

impl TimerRun {
    fn at(&self, i: usize) -> SimTime {
        self.start + (self.base + self.offs.0[i].1.mul_f64(self.scale))
    }
}

/// An event yielded by [`Simulator::next_event`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A timer scheduled with [`Simulator::schedule`] has fired.
    Timer(Token),
    /// A network flow finished transferring all its bytes.
    FlowCompleted(FlowId),
    /// An installed fault was applied or lifted (see
    /// [`Simulator::install_faults`]). The capacity change has already been
    /// executed when this event is delivered.
    Fault(FaultRecord),
}

/// Discrete-event simulator combining a timer wheel with a [`FlowNet`].
///
/// Events are delivered in time order; ties are broken deterministically
/// (timers before flow completions at the same instant, timers in scheduling
/// order, flows in start order). Timers live in the same indexed
/// [`CalendarQueue`] structure the network uses for completion predictions,
/// so the per-event cost stays O(1) amortized at any fleet size.
///
/// # Example
/// ```
/// use aiacc_simnet::{Event, SimDuration, Simulator, Token};
/// let mut sim = Simulator::new();
/// sim.schedule(SimDuration::from_micros(5), Token::new(7, 0, 0));
/// let (t, ev) = sim.next_event().unwrap();
/// assert_eq!(t.as_nanos(), 5_000);
/// assert_eq!(ev, Event::Timer(Token::new(7, 0, 0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    net: FlowNet,
    timers: CalendarQueue<Timer>,
    /// Timer runs being expanded, indexed by [`Timer::Run`]; `None` slots
    /// are free and listed in `free_runs` for reuse.
    runs: Vec<Option<TimerRun>>,
    free_runs: Vec<u32>,
    /// Flow completions discovered together but not yet handed out, with
    /// their tags.
    pending_flows: Vec<(FlowId, u32)>,
    /// Tag of the flow delivered by the last [`Event::FlowCompleted`].
    completed_tag: u32,
    /// Compiled link-fault schedule (empty when no plan is installed).
    faults: FaultInjector,
    /// Every fault action executed so far, in order.
    fault_log: Vec<(SimTime, FaultRecord)>,
    /// Structured trace recorder (disabled — and free — by default).
    trace: TraceSink,
    /// Current token/flow scope (0 = unscoped). See
    /// [`Simulator::set_token_scope`].
    token_scope: u32,
    /// Bits of the last `active_flows` counter sample, for dedup: the
    /// counter is re-emitted only on an actual flow-count transition.
    last_flow_counter: Option<u64>,
}

impl Simulator {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Simulator::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// The underlying network (e.g. to add resources or inspect utilization).
    pub fn net(&self) -> &FlowNet {
        &self.net
    }

    /// Mutable access to the underlying network.
    pub fn net_mut(&mut self) -> &mut FlowNet {
        &mut self.net
    }

    /// Schedules `token` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, token: Token) {
        self.schedule_at(self.now() + delay, token);
    }

    /// Schedules `token` at an absolute instant.
    ///
    /// While a token scope is armed ([`Self::set_token_scope`]) the scope is
    /// stamped into the token's high kind bits, so multiplexing drivers can
    /// route the timer back to the tenant that scheduled it.
    ///
    /// # Panics
    /// Panics if `at` is in the past, or if a scope is armed and the token's
    /// kind does not fit below [`TOKEN_SCOPE_SHIFT`].
    pub fn schedule_at(&mut self, at: SimTime, mut token: Token) {
        assert!(at >= self.now(), "scheduling in the past: {at} < {}", self.now());
        token.kind = self.scoped_kind(token.kind);
        self.timers.push(at.as_nanos(), Timer::One(token));
    }

    /// `kind` with the armed token scope stamped in.
    fn scoped_kind(&self, kind: u32) -> u32 {
        if self.token_scope == 0 {
            return kind;
        }
        assert!(kind <= TOKEN_KIND_MASK, "token kind {kind} collides with the armed scope stamp");
        kind | self.token_scope << TOKEN_SCOPE_SHIFT
    }

    /// Schedules a run of timers, one per `(b, off)` in `offs`: exactly
    /// `for (b, off) in offs { schedule(base + off.mul_f64(scale),
    /// Token::new(kind, a, b)) }`, with the same instants, scope stamping
    /// and insertion stamps, so every event pops in the same order. Only
    /// the run's next element is queued: popping it queues the one after
    /// under its reserved stamp. Because the offsets are non-decreasing
    /// and `mul_f64` is monotone, that element sorts at or after the one
    /// just popped, so the lazy queue pops what the eager one would.
    ///
    /// # Panics
    /// Panics if `offs` is non-empty, a scope is armed and `kind` does not
    /// fit below [`TOKEN_SCOPE_SHIFT`].
    pub fn schedule_run(
        &mut self,
        base: SimDuration,
        offs: &RunOffsets,
        scale: f64,
        kind: u32,
        a: u32,
    ) {
        if offs.is_empty() {
            return;
        }
        let run = TimerRun {
            offs: offs.clone(),
            start: self.now(),
            base,
            scale,
            kind: self.scoped_kind(kind),
            a,
            next: 0,
            seq: self.timers.reserve_stamps(offs.len() as u64),
        };
        let at = run.at(0).as_nanos();
        let seq = run.seq;
        let id = match self.free_runs.pop() {
            Some(id) => {
                self.runs[id as usize] = Some(run);
                id
            }
            None => {
                self.runs.push(Some(run));
                (self.runs.len() - 1) as u32
            }
        };
        self.timers.push_stamped(at, seq, Timer::Run(id));
    }

    /// Slots in the timer-run slab, live or free: the most runs that were
    /// ever being expanded at once.
    pub fn timer_run_slots(&self) -> usize {
        self.runs.len()
    }

    /// The token of run `id`'s queued element, which just popped; queues
    /// the run's next element or frees the run.
    fn pop_run(&mut self, id: u32) -> Token {
        let slot = &mut self.runs[id as usize];
        let run = slot.as_mut().expect("queued run is live");
        let token = Token::new(run.kind, run.a, run.offs.0[run.next].0);
        run.next += 1;
        if run.next < run.offs.len() {
            run.seq += 1;
            let at = run.at(run.next).as_nanos();
            self.timers.push_stamped(at, run.seq, Timer::Run(id));
        } else {
            *slot = None;
            self.free_runs.push(id);
        }
        token
    }

    /// Arms (or with `0` clears) the *token scope*: every timer scheduled and
    /// every flow started while the scope is armed is stamped with it —
    /// timers in the high bits of [`Token::kind`], flows as their telemetry
    /// tag. This is how the multi-job scheduler multiplexes several tenants'
    /// engines over one shared event loop without threading a job id through
    /// every engine signature; with the scope at its default `0`, behavior is
    /// bit-identical to an unscoped simulator.
    ///
    /// # Panics
    /// Panics if `scope` does not fit above [`TOKEN_SCOPE_SHIFT`].
    pub fn set_token_scope(&mut self, scope: u32) {
        assert!(scope <= TOKEN_KIND_MASK, "scope {scope} out of range");
        self.token_scope = scope;
    }

    /// The currently armed token scope (`0` = unscoped).
    pub fn token_scope(&self) -> u32 {
        self.token_scope
    }

    /// Starts a network flow at the current time. While a token scope is
    /// armed ([`Self::set_token_scope`]), untagged specs inherit the scope as
    /// their telemetry tag.
    pub fn start_flow(&mut self, mut spec: FlowSpec) -> FlowId {
        if self.token_scope != 0 && spec.tag == 0 {
            spec.tag = self.token_scope;
        }
        let id = self.net.start_flow(spec);
        self.emit_flow_counter();
        id
    }

    /// Cancels a flow (see [`FlowNet::cancel_flow`]), recording the
    /// rate-change in the trace when tracing is armed. Returns `false` when
    /// the flow is unknown or already finished.
    pub fn cancel_flow(&mut self, id: FlowId) -> bool {
        let cancelled = self.net.cancel_flow(id);
        if cancelled {
            self.emit_flow_counter();
        }
        cancelled
    }

    /// Samples the `active_flows` trace counter if its value changed since
    /// the last sample. Called after every operation that can move the
    /// flow count — starts, cancellations, activations and completions — so
    /// Perfetto flow-count curves are exact between completions too.
    fn emit_flow_counter(&mut self) {
        if !self.trace.is_enabled() {
            return;
        }
        let n = self.net.active_flow_count() as f64;
        if self.last_flow_counter == Some(n.to_bits()) {
            return;
        }
        self.last_flow_counter = Some(n.to_bits());
        self.trace.counter(self.now(), track::NET, "active_flows", n);
    }

    /// Arms the structured trace sink; see [`crate::trace`]. Until this is
    /// called, every trace record is a no-op and simulation behavior is
    /// bit-identical to an un-instrumented run.
    pub fn enable_tracing(&mut self) {
        self.trace.enable();
    }

    /// Whether tracing is armed. Call sites that build event names with
    /// `format!` should check this first so the disabled path stays
    /// allocation-free.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// The trace sink (for export and summary analysis).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Mutable access to the trace sink.
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Opens a trace span on `(pid, tid)` at the current virtual time.
    pub fn trace_span_begin(&mut self, pid: u32, tid: u64, name: &str, cat: &'static str) {
        let t = self.now();
        self.trace.span_begin(t, pid, tid, name, cat);
    }

    /// Closes a trace span on `(pid, tid)` at the current virtual time.
    pub fn trace_span_end(&mut self, pid: u32, tid: u64, name: &str, cat: &'static str) {
        let t = self.now();
        self.trace.span_end(t, pid, tid, name, cat);
    }

    /// Records an instant trace event at the current virtual time.
    pub fn trace_instant(
        &mut self,
        pid: u32,
        tid: u64,
        name: &str,
        cat: &'static str,
        value: Option<f64>,
    ) {
        let t = self.now();
        self.trace.instant(t, pid, tid, name, cat, value);
    }

    /// Records a counter sample at the current virtual time.
    pub fn trace_counter(&mut self, pid: u32, name: &str, value: f64) {
        let t = self.now();
        self.trace.counter(t, pid, name, value);
    }

    /// Installs (replaces) the link-fault schedule of `plan`.
    ///
    /// Only resource-targeted degrade/flap events are executed by the
    /// simulator; node-scoped faults (stragglers, crashes) are data for
    /// higher layers — resolve node-targeted link faults with
    /// [`FaultPlan::resolve_links`] before installing. Fault actions are
    /// delivered as [`Event::Fault`] and take priority over timers and flow
    /// completions scheduled at the same instant, so handlers observe the
    /// post-fault capacities.
    ///
    /// # Panics
    /// Panics if any scheduled action is already in the past.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        let injector = FaultInjector::compile(plan);
        if let Some(first) = injector.next_at() {
            assert!(first >= self.now(), "fault scheduled in the past: {first} < {}", self.now());
        }
        self.faults = injector;
    }

    /// Every executed fault action so far, oldest first.
    pub fn fault_log(&self) -> &[(SimTime, FaultRecord)] {
        &self.fault_log
    }

    /// Whether the installed fault plan still has undelivered apply/restore
    /// actions. `false` means every fault has run to completion, so (for
    /// plans whose faults all carry durations) link capacities are back at
    /// their configured base values — one of the quiescence conditions the
    /// streaming scheduler requires before taking a snapshot.
    pub fn faults_pending(&self) -> bool {
        self.faults.next_at().is_some()
    }

    /// Returns the next event and advances virtual time to it, or `None` when
    /// neither timers, faults, nor flows remain.
    pub fn next_event(&mut self) -> Option<(SimTime, Event)> {
        if let Some(id) = self.pop_pending_flow() {
            return Some((self.now(), Event::FlowCompleted(id)));
        }
        // Iterative, not recursive: a network change can be an activation
        // with no completion to deliver, and arbitrarily long chains of
        // staggered flow latencies must not grow the stack.
        loop {
            let t_timer = self.timers.peek_time().map(SimTime::from_nanos);
            let t_flow = self.net.next_change();
            // Faults preempt both timers and flow events at the same instant
            // so that handlers always observe post-fault capacities.
            if let Some(tf) = self.faults.next_at() {
                let beats_timer = t_timer.is_none_or(|tt| tf <= tt);
                let beats_flow = t_flow.is_none_or(|tl| tf <= tl);
                if beats_timer && beats_flow {
                    self.net.advance_to(tf);
                    self.emit_flow_counter();
                    let rec = self.faults.apply_next(&mut self.net);
                    self.fault_log.push((tf, rec));
                    if self.trace.is_enabled() {
                        let name = format!("fault {:?} r{}", rec.phase, rec.resource.as_u32());
                        self.trace.instant(
                            tf,
                            track::NET,
                            0,
                            &name,
                            "fault",
                            Some(rec.capacity_after),
                        );
                    }
                    return Some((tf, Event::Fault(rec)));
                }
            }
            match (t_timer, t_flow) {
                (None, None) => return None,
                (Some(tt), tf) if tf.is_none_or(|tf| tt <= tf) => {
                    let token = match self.timers.pop().expect("peeked").1 {
                        Timer::One(token) => token,
                        Timer::Run(id) => self.pop_run(id),
                    };
                    self.net.advance_to(tt);
                    self.emit_flow_counter();
                    return Some((tt, Event::Timer(token)));
                }
                (_, Some(tf)) => {
                    self.net.advance_to(tf);
                    let mut done = self.net.take_completed_tagged();
                    if done.is_empty() {
                        // The change was a flow activation, not a
                        // completion; sample the counter and keep looking.
                        self.emit_flow_counter();
                        continue;
                    }
                    // Deliver in start order: pop() takes from the back.
                    done.reverse();
                    self.pending_flows = done;
                    self.emit_flow_counter();
                    let id = self.pop_pending_flow().expect("nonempty");
                    return Some((self.now(), Event::FlowCompleted(id)));
                }
                // (Some, None) with a failed guard cannot happen: the guard
                // always passes when there is no flow event.
                (Some(_), None) => unreachable!(),
            }
        }
    }

    /// Hands out the next discovered flow completion, remembering its tag.
    fn pop_pending_flow(&mut self) -> Option<FlowId> {
        let (id, tag) = self.pending_flows.pop()?;
        self.completed_tag = tag;
        Some(id)
    }

    /// The tag of the flow delivered by the most recent
    /// [`Event::FlowCompleted`] (`0` = untagged). With a token scope armed
    /// at its start, that is the scope: multiplexing drivers route the
    /// completion with it instead of asking every tenant.
    pub fn completed_flow_tag(&self) -> u32 {
        self.completed_tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_fire_in_order_with_fifo_ties() {
        let mut sim = Simulator::new();
        sim.schedule(SimDuration::from_nanos(10), Token::new(1, 0, 0));
        sim.schedule(SimDuration::from_nanos(5), Token::new(2, 0, 0));
        sim.schedule(SimDuration::from_nanos(10), Token::new(3, 0, 0));
        let kinds: Vec<u32> = std::iter::from_fn(|| sim.next_event())
            .map(|(_, ev)| match ev {
                Event::Timer(t) => t.kind,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kinds, vec![2, 1, 3]);
    }

    #[test]
    fn flows_and_timers_interleave() {
        let mut sim = Simulator::new();
        let r = sim.net_mut().add_resource("l", 10.0);
        sim.start_flow(FlowSpec::new(vec![r], 20.0)); // completes at t=2s
        sim.schedule(SimDuration::from_secs_f64(1.0), Token::new(9, 0, 0));
        let (t1, e1) = sim.next_event().unwrap();
        assert_eq!(e1, Event::Timer(Token::new(9, 0, 0)));
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-9);
        let (t2, e2) = sim.next_event().unwrap();
        assert!(matches!(e2, Event::FlowCompleted(_)));
        assert!((t2.as_secs_f64() - 2.0).abs() < 1e-6);
        assert!(sim.next_event().is_none());
    }

    #[test]
    fn simultaneous_flow_completions_delivered_in_id_order() {
        let mut sim = Simulator::new();
        let r = sim.net_mut().add_resource("l", 10.0);
        let a = sim.start_flow(FlowSpec::new(vec![r], 20.0));
        let b = sim.start_flow(FlowSpec::new(vec![r], 20.0));
        let mut ids = Vec::new();
        while let Some((_, ev)) = sim.next_event() {
            if let Event::FlowCompleted(id) = ev {
                ids.push(id);
            }
        }
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    fn handler_can_chain_work() {
        let mut sim = Simulator::new();
        let r = sim.net_mut().add_resource("l", 100.0);
        sim.schedule(SimDuration::from_nanos(1), Token::new(1, 0, 0));
        let mut completions = Vec::new();
        while let Some((t, ev)) = sim.next_event() {
            match ev {
                // A timer chains a flow, and that flow's completion chains
                // one more timer.
                Event::Timer(tok) if tok.kind == 1 => {
                    sim.start_flow(FlowSpec::new(vec![r], 50.0));
                }
                Event::FlowCompleted(_) => {
                    completions.push(t.as_nanos());
                    if completions.len() == 1 {
                        sim.schedule(SimDuration::from_nanos(1), Token::new(1, 0, 0));
                    }
                }
                _ => {}
            }
        }
        // 50 B at 100 B/s: each flow takes 0.5 s after its 1 ns timer.
        assert_eq!(completions, vec![500_000_001, 1_000_000_002]);
    }

    #[test]
    fn schedule_at_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule(SimDuration::from_nanos(100), Token::default());
        let _ = sim.next_event();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.schedule_at(SimTime::from_nanos(5), Token::default());
        }));
        assert!(result.is_err());
    }

    #[test]
    fn empty_sim_yields_none() {
        assert!(Simulator::new().next_event().is_none());
    }

    #[test]
    fn activation_only_chains_do_not_overflow_stack() {
        // Regression: next_event used to recurse on activation-only network
        // changes, so thousands of consecutive staggered flow latencies
        // overflowed the stack. Each flow sits on its own resource in its
        // own solver group, so each activation re-solves a one-flow
        // component and the chain cost stays O(1) per event.
        let mut sim = Simulator::new();
        let n: u64 = 20_000;
        for i in 0..n {
            let r = sim.net_mut().add_resource_in_group(format!("r{i}"), 1.0, i as u32);
            // All flows transfer for ~1s; activations are staggered 1ns
            // apart, so the first completion comes after every activation.
            sim.start_flow(
                FlowSpec::new(vec![r], 1.0).with_latency(SimDuration::from_nanos(i + 1)),
            );
        }
        // One next_event call must chew through all n activation-only
        // changes iteratively before yielding the first completion.
        let (t, ev) = sim.next_event().unwrap();
        assert!(matches!(ev, Event::FlowCompleted(_)));
        assert!(t.as_secs_f64() > 1.0);
        let mut completions = 1;
        while let Some((_, ev)) = sim.next_event() {
            assert!(matches!(ev, Event::FlowCompleted(_)));
            completions += 1;
        }
        assert_eq!(completions, n);
    }

    #[test]
    fn flow_counter_emitted_on_every_transition() {
        let mut sim = Simulator::new();
        sim.enable_tracing();
        let r = sim.net_mut().add_resource("l", 10.0);
        // One immediate flow, one delayed: the counter must step on the
        // start (1), the activation (2), and each completion (1, then 0).
        sim.start_flow(FlowSpec::new(vec![r], 10.0));
        sim.start_flow(FlowSpec::new(vec![r], 40.0).with_latency(SimDuration::from_millis(1)));
        while sim.next_event().is_some() {}
        let counters: Vec<f64> = sim
            .trace()
            .events()
            .iter()
            .filter(|e| e.phase == crate::trace::TracePhase::Counter && e.name == "active_flows")
            .filter_map(|e| e.value)
            .collect();
        assert_eq!(counters, vec![1.0, 2.0, 1.0, 0.0], "got {counters:?}");
    }
}
