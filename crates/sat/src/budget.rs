//! The shared resource budget threaded through every solver layer.
//!
//! Historically each layer of the stack had its own budget plumbing (the
//! SAT solver took per-call duration caps, the MaxSAT engine a total
//! duration plus a conflict cap, the routers an `Option<Duration>`), and a
//! child call could silently overshoot its parent's allowance because every
//! layer restarted the clock. [`ResourceBudget`] replaces all of them with
//! one *deadline-based* type: arming a budget converts its relative time
//! limit into an absolute deadline, and children inherit the deadline, so a
//! nested SAT call can never outlive the routing request that spawned it.
//!
//! Budgets also carry an optional [`CancelToken`], a thread-safe kill
//! switch checked alongside the deadline in [`ResourceBudget::expired`].
//! Tokens form a parent/child chain mirroring budget inheritance:
//! cancelling a parent token stops every descendant, so a daemon abort or
//! an experiment sweep can tear down all of its in-flight solver work from
//! another thread.
//!
//! # Examples
//!
//! ```
//! use sat::ResourceBudget;
//! use std::time::Duration;
//!
//! let parent = ResourceBudget::with_time(Duration::from_millis(50)).arm();
//! // A child may ask for more time, but arming clamps to the parent's
//! // deadline.
//! let child = parent.limit_time(Duration::from_secs(60)).arm();
//! assert_eq!(child.deadline(), parent.deadline());
//!
//! // Cooperative cancellation from another thread:
//! let (budget, token) = ResourceBudget::unlimited().cancellable();
//! assert!(!budget.expired());
//! token.cancel();
//! assert!(budget.expired());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One step of the splitmix64 generator: advances `state` and returns the
/// next 64-bit draw. Small, seedable, and dependency-free — shared by the
/// retry-backoff jitter here and the fault-injection plan in
/// [`crate::chaos`].
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the next splitmix64 output.
pub(crate) fn unit_draw(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A thread-safe cooperative cancellation flag.
///
/// Cloning shares the same flag; [`CancelToken::child`] creates a *linked*
/// token that is considered cancelled whenever any ancestor is, mirroring
/// the budget-inheritance chain (a child solver killed by its parent's
/// token can never outlive the parent's allowance).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    parent: Option<CancelToken>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no parent.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token cancelled whenever `self` (or any ancestor of `self`) is,
    /// and additionally cancellable on its own without affecting `self`.
    pub fn child(&self) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Raises the flag: every budget carrying this token (or a descendant
    /// of it) reports [`ResourceBudget::expired`] from now on.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True if this token or any ancestor has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        let mut cur = Some(self);
        while let Some(t) = cur {
            if t.inner.cancelled.load(Ordering::Acquire) {
                return true;
            }
            cur = t.inner.parent.as_ref();
        }
        false
    }
}

/// A wall-clock and conflict allowance for solver work.
///
/// Two states:
///
/// * **unarmed** — carries a relative `time_limit` (what configuration
///   files and builders produce; reusable across repeated calls);
/// * **armed** — [`ResourceBudget::arm`] has converted the limit into an
///   absolute `deadline`, clamped to any deadline already inherited from a
///   parent. Arming an already armed budget never extends the deadline.
///
/// The conflict cap applies to each individual SAT call (it protects the
/// anytime MaxSAT loop from one call consuming the entire allowance) and is
/// inherited unchanged by children, as is the cancellation token.
#[derive(Clone, Debug, Default)]
pub struct ResourceBudget {
    /// Relative allowance, consumed by [`ResourceBudget::arm`].
    time_limit: Option<Duration>,
    /// Absolute point after which work must stop.
    deadline: Option<Instant>,
    /// Conflict cap per individual SAT call.
    conflicts_per_call: Option<u64>,
    /// Cooperative kill switch, checked alongside the deadline.
    cancel: Option<CancelToken>,
}

impl ResourceBudget {
    /// No limits at all.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget allowing `d` of wall-clock time once armed.
    pub fn with_time(d: Duration) -> Self {
        ResourceBudget {
            time_limit: Some(d),
            ..Self::default()
        }
    }

    /// Returns a copy with a per-SAT-call conflict cap.
    pub fn conflicts_per_call(&self, n: u64) -> Self {
        let mut b = self.clone();
        b.conflicts_per_call = Some(n);
        b
    }

    /// Returns a copy whose relative time limit is `d` (the inherited
    /// deadline, if any, still applies — a child can only tighten).
    pub fn limit_time(&self, d: Duration) -> Self {
        let mut b = self.clone();
        b.time_limit = Some(match b.time_limit {
            Some(existing) => existing.min(d),
            None => d,
        });
        b
    }

    /// Returns a copy observing `token`: once the token (or any ancestor
    /// of it) is cancelled, the budget reports [`ResourceBudget::expired`].
    /// Replaces any token previously attached.
    pub fn with_cancel(&self, token: CancelToken) -> Self {
        let mut b = self.clone();
        b.cancel = Some(token);
        b
    }

    /// Returns a copy of the budget together with a token that cancels it.
    ///
    /// If the budget already carries a token, the new token is created as a
    /// *child* of it, so cancellation from the original (parent) token
    /// still propagates — a worker armed through `cancellable` can never
    /// outlive the budget it descended from.
    pub fn cancellable(&self) -> (Self, CancelToken) {
        let token = match &self.cancel {
            Some(parent) => parent.child(),
            None => CancelToken::new(),
        };
        let mut budget = self.clone();
        budget.cancel = Some(token.clone());
        (budget, token)
    }

    /// The cancellation token attached to this budget, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Starts the clock: converts the relative time limit into an absolute
    /// deadline, clamped to any inherited deadline. Idempotent on armed
    /// budgets; unlimited budgets stay unlimited.
    #[must_use = "arming returns the budget that enforces the deadline"]
    pub fn arm(&self) -> Self {
        let mut armed = self.clone();
        if let Some(limit) = armed.time_limit.take() {
            let from_limit = Instant::now() + limit;
            armed.deadline = Some(match armed.deadline {
                Some(existing) => existing.min(from_limit),
                None => from_limit,
            });
        }
        armed
    }

    /// The absolute deadline, if armed with a time limit.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The per-SAT-call conflict cap, if any.
    pub fn conflict_cap(&self) -> Option<u64> {
        self.conflicts_per_call
    }

    /// True if any limit (time or conflicts) is configured. A cancellation
    /// token alone does not count: an uncancelled token imposes no limit.
    pub fn is_limited(&self) -> bool {
        self.time_limit.is_some() || self.deadline.is_some() || self.conflicts_per_call.is_some()
    }

    /// Time left until the deadline (`None` = no time limit). An unarmed
    /// time limit counts in full.
    pub fn remaining_time(&self) -> Option<Duration> {
        match (self.deadline, self.time_limit) {
            (Some(d), _) => Some(d.saturating_duration_since(Instant::now())),
            (None, Some(l)) => Some(l),
            (None, None) => None,
        }
    }

    /// The pause before retry number `attempt` (1-based) of a failed
    /// request: exponential in the attempt with a deterministic seeded
    /// jitter, capped at `cap`.
    ///
    /// The nominal delay is `base * 2^(attempt-1)`; each attempt's value is
    /// then scaled by a jitter factor in `[0.75, 1.25)` drawn from
    /// `(seed, attempt)`, so concurrent retry ladders with different seeds
    /// de-synchronize while any single ladder stays reproducible. Because
    /// the doubling outpaces the jitter band (`2 * 0.75 > 1.25`), the
    /// sequence is monotone nondecreasing in `attempt` until it plateaus at
    /// `cap`. Attempt 0 (the initial try) waits nothing.
    ///
    /// Shared by the routing supervisor's escalation ladder and any future
    /// server-side retry queue, so all layers pace retries identically.
    pub fn backoff_for(attempt: u32, base: Duration, cap: Duration, seed: u64) -> Duration {
        if attempt == 0 || base.is_zero() {
            return Duration::ZERO;
        }
        let exp = i32::try_from(attempt - 1).unwrap_or(i32::MAX).min(62);
        let mut state = seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let jitter = 0.75 + 0.5 * unit_draw(&mut state);
        let nominal = base.as_secs_f64() * 2f64.powi(exp) * jitter;
        let capped = nominal.min(cap.as_secs_f64());
        Duration::from_secs_f64(capped.max(0.0))
    }

    /// True once the armed deadline has passed or the attached cancellation
    /// token (or any of its ancestors) has been cancelled.
    pub fn expired(&self) -> bool {
        if matches!(&self.cancel, Some(t) if t.is_cancelled()) {
            return true;
        }
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }
}

impl From<Duration> for ResourceBudget {
    /// A plain duration is the most common budget: wall-clock only.
    fn from(d: Duration) -> Self {
        ResourceBudget::with_time(d)
    }
}

/// A keyed registry of live [`CancelToken`]s — the server-side abort
/// surface.
///
/// A serving layer registers each in-flight request's token under its
/// request id; an `abort <id>` verb (or an operator) cancels by id from
/// any thread, and completion removes the entry. The registry is
/// poison-tolerant: a panicking worker thread cannot wedge the abort path
/// for every other request.
///
/// # Examples
///
/// ```
/// use sat::{CancelRegistry, ResourceBudget};
///
/// let registry = CancelRegistry::new();
/// let (budget, token) = ResourceBudget::unlimited().cancellable();
/// registry.insert(7, token);
/// assert!(registry.cancel(7));
/// assert!(budget.expired());
/// assert!(!registry.cancel(7), "cancelled entries are consumed");
/// ```
#[derive(Debug, Default)]
pub struct CancelRegistry {
    inner: std::sync::Mutex<std::collections::HashMap<u64, CancelToken>>,
}

impl CancelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, std::collections::HashMap<u64, CancelToken>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Registers `token` as the abort handle for request `id`, replacing
    /// any previous handle under that id.
    pub fn insert(&self, id: u64, token: CancelToken) {
        self.lock().insert(id, token);
    }

    /// Cancels (and removes) the handle registered under `id`. Returns
    /// `false` when no live handle exists — the request already completed,
    /// was never registered, or was aborted before.
    pub fn cancel(&self, id: u64) -> bool {
        match self.lock().remove(&id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Removes the handle for a completed request without cancelling it.
    /// Returns `true` if a handle was present.
    pub fn complete(&self, id: u64) -> bool {
        self.lock().remove(&id).is_some()
    }

    /// Cancels every live handle (drain/shutdown path); returns how many
    /// were cancelled.
    pub fn cancel_all(&self) -> usize {
        let handles: Vec<CancelToken> = self.lock().drain().map(|(_, t)| t).collect();
        for t in &handles {
            t.cancel();
        }
        handles.len()
    }

    /// Number of live handles (in-flight or queued requests).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no handles are live.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let b = ResourceBudget::unlimited().arm();
        assert!(!b.expired());
        assert!(!b.is_limited());
        assert_eq!(b.remaining_time(), None);
        assert_eq!(b.deadline(), None);
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let b = ResourceBudget::with_time(Duration::ZERO).arm();
        assert!(b.expired());
    }

    #[test]
    fn child_cannot_extend_parent_deadline() {
        let parent = ResourceBudget::with_time(Duration::from_millis(10)).arm();
        let child = parent.limit_time(Duration::from_secs(3600)).arm();
        assert_eq!(child.deadline(), parent.deadline());
        // And a child may tighten.
        let tight = parent.limit_time(Duration::ZERO).arm();
        assert!(tight.deadline() <= parent.deadline());
        assert!(tight.expired());
    }

    #[test]
    fn arm_is_idempotent() {
        let b = ResourceBudget::with_time(Duration::from_secs(5)).arm();
        let again = b.arm();
        assert_eq!(again.deadline(), b.deadline());
    }

    #[test]
    fn conflict_cap_is_inherited() {
        let b = ResourceBudget::unlimited().conflicts_per_call(7);
        assert_eq!(b.conflict_cap(), Some(7));
        assert_eq!(b.arm().conflict_cap(), Some(7));
        assert!(b.is_limited());
    }

    #[test]
    fn from_duration_is_time_budget() {
        let b: ResourceBudget = Duration::from_millis(500).into();
        assert_eq!(b.remaining_time(), Some(Duration::from_millis(500)));
        assert!(!b.expired(), "unarmed budget has no deadline yet");
    }

    #[test]
    fn cancel_expires_budget() {
        let (b, token) = ResourceBudget::unlimited().cancellable();
        assert!(!b.expired());
        assert!(!b.is_limited(), "a token alone is not a limit");
        token.cancel();
        assert!(b.expired());
        // Budgets derived from the cancelled one inherit the token.
        assert!(b.limit_time(Duration::from_secs(1)).arm().expired());
    }

    #[test]
    fn parent_cancel_propagates_to_children() {
        let (parent, parent_token) = ResourceBudget::unlimited().cancellable();
        let (child, child_token) = parent.cancellable();
        // Child cancellation does not touch the parent.
        child_token.cancel();
        assert!(child.expired());
        assert!(!parent.expired());
        // Parent cancellation reaches grandchildren.
        let (grandchild, _gc_token) = child.cancellable();
        parent_token.cancel();
        assert!(parent.expired());
        assert!(grandchild.expired());
    }

    #[test]
    fn cancel_crosses_threads() {
        let (b, token) = ResourceBudget::unlimited().cancellable();
        let handle = std::thread::spawn(move || token.cancel());
        handle.join().expect("cancel thread");
        assert!(b.expired());
    }

    #[test]
    fn backoff_is_monotone_and_deterministic() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_secs(10);
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let mut prev = Duration::ZERO;
            for attempt in 1..=16 {
                let d = ResourceBudget::backoff_for(attempt, base, cap, seed);
                assert!(
                    d >= prev,
                    "seed {seed} attempt {attempt}: {d:?} < {prev:?} breaks monotonicity"
                );
                assert_eq!(
                    d,
                    ResourceBudget::backoff_for(attempt, base, cap, seed),
                    "same (seed, attempt) must reproduce the same delay"
                );
                prev = d;
            }
        }
        // Jitter stays within the +-25% band around the nominal doubling.
        let d1 = ResourceBudget::backoff_for(1, base, cap, 7);
        assert!(d1 >= Duration::from_micros(7_500) && d1 < Duration::from_micros(12_500));
    }

    #[test]
    fn backoff_plateaus_at_cap_and_skips_attempt_zero() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_millis(350);
        assert_eq!(
            ResourceBudget::backoff_for(0, base, cap, 3),
            Duration::ZERO,
            "the initial attempt waits nothing"
        );
        for attempt in 4..=40 {
            assert_eq!(
                ResourceBudget::backoff_for(attempt, base, cap, 3),
                cap,
                "attempt {attempt} must sit on the cap"
            );
        }
        // A zero base disables backoff entirely.
        assert_eq!(
            ResourceBudget::backoff_for(9, Duration::ZERO, cap, 3),
            Duration::ZERO
        );
    }

    #[test]
    fn cancel_registry_aborts_by_id_and_forgets_completed() {
        let registry = CancelRegistry::new();
        let (a, token_a) = ResourceBudget::unlimited().cancellable();
        let (b, token_b) = ResourceBudget::unlimited().cancellable();
        registry.insert(1, token_a);
        registry.insert(2, token_b);
        assert_eq!(registry.len(), 2);
        // Abort by id: only the targeted budget expires.
        assert!(registry.cancel(1));
        assert!(a.expired());
        assert!(!b.expired());
        // Completion removes without cancelling.
        assert!(registry.complete(2));
        assert!(!b.expired());
        assert!(registry.is_empty());
        assert!(!registry.cancel(2), "completed entries are gone");
        // cancel_all sweeps whatever is left.
        let (c, token_c) = ResourceBudget::unlimited().cancellable();
        registry.insert(3, token_c);
        assert_eq!(registry.cancel_all(), 1);
        assert!(c.expired());
    }

    #[test]
    fn arm_preserves_token() {
        let (b, token) = ResourceBudget::with_time(Duration::from_secs(60)).cancellable();
        let armed = b.arm();
        assert!(!armed.expired());
        token.cancel();
        assert!(armed.expired());
        assert!(armed.cancel_token().expect("token kept").is_cancelled());
    }
}
