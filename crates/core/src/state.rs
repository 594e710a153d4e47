//! Shared marking-process state: activity, `done` flags, and the virtual
//! task root.

/// Which mark-task flavor the R-side marking process is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RMode {
    /// `mark1` — the simplified algorithm of Figure 4-1.
    Simple,
    /// `mark2` — priority marking, Figures 5-1/5-2.
    Priority,
}

/// The (tiny, per-system) state of the two marking processes.
///
/// The paper's algorithm is decentralized: all real state lives on the
/// vertices (`mt-cnt`, `mt-par`, colors). What remains here is exactly what
/// the paper also keeps outside the graph: the `done` flags that
/// `return1(rootpar)` sets, the outstanding-seed count of the virtual
/// `troot`, and whether each process is currently active (which the
/// cooperating mutator primitives consult).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MarkState {
    /// `Some(mode)` while the R-side process (`mark1` or `M_R`) is active.
    pub r_mode: Option<RMode>,
    /// `true` once `return1(rootpar)` has executed *and* every orphan mark
    /// hung on the R-side virtual root by a cooperating mutator has
    /// returned.
    pub r_done: bool,
    /// Whether `return1(rootpar)` has executed.
    r_root_returned: bool,
    /// Mutator-spawned R-side marks hung on the virtual root (used when a
    /// *marked* vertex gains a new arc and no transient vertex is available
    /// to absorb the return).
    r_extra_outstanding: u32,
    /// `true` while `M_T` is active.
    pub t_active: bool,
    /// Set when every seed hung on the virtual `troot` has returned.
    pub t_done: bool,
    /// Mark tasks hung on the virtual `troot` that have not yet returned
    /// (the `mt-cnt` of `troot`).
    pub troot_outstanding: u32,
    /// `false` disables mutator cooperation entirely — the ablation that
    /// reproduces the static-graph assumption of Chandy–Misra-style
    /// algorithms (experiment T-abl).
    pub cooperation_enabled: bool,
}

impl MarkState {
    /// Fresh state with cooperation enabled and no process active.
    pub fn new() -> Self {
        MarkState {
            cooperation_enabled: true,
            ..MarkState::default()
        }
    }

    /// Begins an R-side pass: activates the process and clears `done`.
    pub fn begin_r(&mut self, mode: RMode) {
        self.r_mode = Some(mode);
        self.r_done = false;
        self.r_root_returned = false;
        self.r_extra_outstanding = 0;
    }

    /// Ends the R-side pass (after `done` was observed).
    pub fn end_r(&mut self) {
        self.r_mode = None;
    }

    /// Notes that `return1(rootpar)` executed.
    pub fn note_rootpar_return(&mut self) {
        self.r_root_returned = true;
        self.r_done = self.r_extra_outstanding == 0;
    }

    /// Registers an orphan R-side mark hung on the virtual root.
    pub fn add_r_extra(&mut self) {
        self.r_extra_outstanding += 1;
        self.r_done = false;
    }

    /// Handles the return of an orphan R-side mark.
    pub fn return_r_extra(&mut self) {
        debug_assert!(
            self.r_extra_outstanding > 0,
            "return without outstanding mark"
        );
        self.r_extra_outstanding -= 1;
        if self.r_extra_outstanding == 0 && self.r_root_returned {
            self.r_done = true;
        }
    }

    /// Outstanding orphan R-side marks (diagnostics / invariant checking).
    pub fn r_extra_outstanding(&self) -> u32 {
        self.r_extra_outstanding
    }

    /// Begins a `M_T` pass with the given number of seed marks.
    ///
    /// If there are no seeds the pass is vacuously done (an idle system has
    /// an empty `T`).
    pub fn begin_t(&mut self, seeds: u32) {
        self.t_active = true;
        self.troot_outstanding = seeds;
        self.t_done = seeds == 0;
    }

    /// Ends the `M_T` pass.
    pub fn end_t(&mut self) {
        self.t_active = false;
    }

    /// Handles a return to the virtual `troot`; sets `t_done` when the last
    /// outstanding seed returns.
    pub fn return_to_troot(&mut self) {
        debug_assert!(
            self.troot_outstanding > 0,
            "return without outstanding seed"
        );
        self.troot_outstanding -= 1;
        if self.troot_outstanding == 0 {
            self.t_done = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_r() {
        let mut s = MarkState::new();
        assert!(s.cooperation_enabled);
        s.begin_r(RMode::Priority);
        assert_eq!(s.r_mode, Some(RMode::Priority));
        assert!(!s.r_done);
        s.r_done = true;
        s.end_r();
        assert!(s.r_mode.is_none());
    }

    #[test]
    fn lifecycle_t_counts_seeds() {
        let mut s = MarkState::new();
        s.begin_t(3);
        assert!(s.t_active && !s.t_done);
        s.return_to_troot();
        s.return_to_troot();
        assert!(!s.t_done);
        s.return_to_troot();
        assert!(s.t_done);
        s.end_t();
        assert!(!s.t_active);
    }

    #[test]
    fn empty_t_pass_is_immediately_done() {
        let mut s = MarkState::new();
        s.begin_t(0);
        assert!(s.t_done);
    }
}
