//! The adversarial corpus: small graphs + scripted mutations whose every
//! interleaving the explorer enumerates.
//!
//! Each scenario pins down the strongest end-state property that holds
//! under *arbitrary* interleaving of its mutations with marking:
//!
//! * `exact` — the marked set equals `R` of the final graph (mutations, if
//!   any, preserve reachability or only grow it);
//! * otherwise *safe/live* bounds — `R_final ⊆ marked ⊆ R_initial ∪
//!   R_final` (nothing live is lost, nothing never-reachable is marked);
//! * for `mark2`, optionally exact per-vertex priorities and/or priority
//!   closure;
//! * for `mark3`, `T_initial ⊆ marked ⊆ T_final` (snapshot semantics).

use dgr_core::{MarkMsg, MarkState, RMode};
use dgr_graph::{
    GraphStore, MarkParent, NodeLabel, PrimOp, Priority, RequestKind, Requester, Slot,
    TaskEndpoints, Template, TemplateNode, TemplateRef, VertexId,
};

/// Which marking pass the scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// `mark1` (Figure 4-1).
    Mark1,
    /// `mark2` / `M_R` (Figures 5-1/5-2).
    Mark2,
    /// `mark3` / `M_T` (Figure 5-3).
    Mark3,
}

impl PassKind {
    /// The mark slot the pass operates on.
    pub fn slot(self) -> Slot {
        match self {
            PassKind::Mark1 | PassKind::Mark2 => Slot::R,
            PassKind::Mark3 => Slot::T,
        }
    }
}

/// One scripted mutator step, applied through the cooperating primitives
/// of Figure 4-2 (except under the `SkipCoopSplice` fault).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutAction {
    /// `add-reference(a, b, c)`: splice arc `a → c` (three adjacent
    /// vertices).
    AddReference {
        /// Gaining vertex.
        a: VertexId,
        /// Its child through which `c` is currently reached.
        b: VertexId,
        /// The grandchild gaining a direct arc.
        c: VertexId,
    },
    /// `delete-reference(a, b)`: drop arc `a → b`.
    DeleteReference {
        /// Source of the arc.
        a: VertexId,
        /// Target of the arc.
        b: VertexId,
    },
    /// Dereference: drop arc `x → y` and `x` from `requested(y)`.
    Dereference {
        /// The vertex losing interest.
        x: VertexId,
        /// The formerly requested vertex.
        y: VertexId,
    },
    /// Add `from` to `requested(v)` — a new T-arc `v → from`.
    AddRequester {
        /// The vertex gaining a requester.
        v: VertexId,
        /// The new requester.
        from: VertexId,
    },
    /// A plain new R-arc `from → to` outside the `add-reference` pattern
    /// (restructuring), via `coop_r_arc`/`coop_t_arc`.
    GrowArc {
        /// Source of the new arc.
        from: VertexId,
        /// Target of the new arc.
        to: VertexId,
    },
    /// `expand-node(at, template)` with the given actuals.
    Expand {
        /// The application vertex being expanded.
        at: VertexId,
        /// Actual parameters substituted for template params.
        actuals: Vec<VertexId>,
    },
}

/// What to assert once the world is quiescent (beyond the protocol's own
/// `done` flag, which is always asserted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndCheck {
    /// Marked set must equal `R` of the final graph (else the safe/live
    /// bounds `R_final ⊆ marked ⊆ R_initial ∪ R_final` apply).
    pub exact: bool,
    /// Per-vertex priorities must equal the oracle's (mark2, no request
    /// kinds changed mid-pass).
    pub priorities: bool,
    /// `check_priority_closure` must hold (mark2).
    pub closure: bool,
}

/// A fully built scenario instance: graph, initial messages, scripted
/// mutations, and the end-state contract.
#[derive(Debug, Clone)]
pub struct Built {
    /// Which pass is driven.
    pub kind: PassKind,
    /// The initial graph.
    pub g: GraphStore,
    /// The initial marking-process state.
    pub state: MarkState,
    /// The initial mark messages (already "sent", not yet delivered).
    pub initial: Vec<MarkMsg>,
    /// Mutator script, applied in order, interleaved arbitrarily with
    /// message deliveries.
    pub muts: Vec<MutAction>,
    /// Task endpoints seeding `M_T` (empty for R-side scenarios).
    pub tasks: TaskEndpoints,
    /// Template used by `Expand` mutations.
    pub template: Option<Template>,
    /// End-state contract.
    pub end: EndCheck,
}

impl Built {
    /// Applies the mutation script *structurally* (cooperation disabled) to
    /// a clone of the initial graph: the final graph the oracle
    /// expectations are computed on. Deterministic — template expansion
    /// allocates from the same free list in every interleaving.
    pub fn final_graph(&self) -> GraphStore {
        let mut g = self.g.clone();
        let mut off = MarkState::new();
        off.cooperation_enabled = false;
        let mut sink = |_m: MarkMsg| {};
        for m in &self.muts {
            match *m {
                MutAction::AddReference { a, b, c } => {
                    dgr_core::coop::add_reference(&mut off, &mut g, a, b, c, &mut sink)
                        .expect("scenario script: add_reference precondition");
                }
                MutAction::DeleteReference { a, b } => {
                    dgr_core::coop::delete_reference(&mut g, a, b);
                }
                MutAction::Dereference { x, y } => {
                    dgr_core::coop::dereference(&mut g, x, y);
                }
                MutAction::AddRequester { v, from } => {
                    g.vertex_mut(v).add_requester(Requester::Vertex(from));
                }
                MutAction::GrowArc { from, to } => {
                    g.connect(from, to);
                }
                MutAction::Expand { at, ref actuals } => {
                    let tpl = self.template.as_ref().expect("Expand needs a template");
                    let fresh = &mut Vec::new();
                    dgr_core::coop::expand_node(
                        &mut off, &mut g, at, tpl, actuals, fresh, &mut sink,
                    )
                    .expect("scenario script: expand_node");
                }
            }
        }
        g
    }
}

/// A named scenario: a builder function plus its name.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Stable name, used in reports and to look scenarios up for replay.
    pub name: &'static str,
    /// Builds a fresh instance.
    pub build: fn() -> Built,
}

fn end_exact() -> EndCheck {
    EndCheck {
        exact: true,
        priorities: false,
        closure: false,
    }
}

fn end_safe() -> EndCheck {
    EndCheck {
        exact: false,
        priorities: false,
        closure: false,
    }
}

fn mark1_seed(g: &GraphStore) -> Vec<MarkMsg> {
    vec![MarkMsg::Mark1 {
        v: g.root().expect("scenario graph has a root"),
        par: MarkParent::RootPar,
    }]
}

fn mark2_seed(g: &GraphStore) -> Vec<MarkMsg> {
    vec![MarkMsg::Mark2 {
        v: g.root().expect("scenario graph has a root"),
        par: MarkParent::RootPar,
        prior: Priority::Vital,
    }]
}

fn r_state(mode: RMode) -> MarkState {
    let mut s = MarkState::new();
    s.begin_r(mode);
    s
}

/// Diamond with a back-edge: root → a, b; a → c; b → c; c → root.
/// The static adversary for `mark1` — sharing plus a cycle.
fn cycle_diamond() -> Built {
    let mut g = GraphStore::with_capacity(8);
    let root = g.alloc(NodeLabel::If).unwrap();
    let a = g.alloc(NodeLabel::If).unwrap();
    let b = g.alloc(NodeLabel::If).unwrap();
    let c = g.alloc(NodeLabel::If).unwrap();
    let _stray = g.alloc(NodeLabel::lit_int(9)).unwrap();
    g.connect(root, a);
    g.connect(root, b);
    g.connect(a, c);
    g.connect(b, c);
    g.connect(c, root);
    g.set_root(root);
    let initial = mark1_seed(&g);
    Built {
        kind: PassKind::Mark1,
        g,
        state: r_state(RMode::Simple),
        initial,
        muts: vec![],
        tasks: TaskEndpoints::new(),
        template: None,
        end: end_exact(),
    }
}

/// The Section 4.2 lost-vertex adversary: chain root → a → b → c; mid-mark
/// the mutator moves c up (`add-reference(a, b, c)`) and severs the old
/// path (`delete-reference(b, c)`). Reachability is preserved, so the
/// marked set must be exact in every interleaving.
fn move_mid_mark() -> Built {
    let mut g = GraphStore::with_capacity(8);
    let root = g.alloc(NodeLabel::If).unwrap();
    let a = g.alloc(NodeLabel::If).unwrap();
    let b = g.alloc(NodeLabel::If).unwrap();
    let c = g.alloc(NodeLabel::lit_int(1)).unwrap();
    let _stray = g.alloc(NodeLabel::lit_int(9)).unwrap();
    g.connect(root, a);
    g.connect(a, b);
    g.connect(b, c);
    g.set_root(root);
    let initial = mark1_seed(&g);
    Built {
        kind: PassKind::Mark1,
        g,
        state: r_state(RMode::Simple),
        initial,
        muts: vec![
            MutAction::AddReference { a, b, c },
            MutAction::DeleteReference { a: b, b: c },
        ],
        tasks: TaskEndpoints::new(),
        template: None,
        end: end_exact(),
    }
}

/// Two moves through a *shared* vertex: root → a, root → b, a → b,
/// b → c, c → d. The first move lifts c from b to a, the second lifts d
/// from c to a. When root's mark reaches b before a's does, a's own mark
/// on b returns at once, so a can complete while b is still transient and
/// b's mark on c is still in flight: a is marked, its new child c is not.
/// If the second move happens then, `add-reference(a, c, d)` sees a marked
/// parent with an unmarked child, and d — no longer c's child when the
/// late mark lands — is reachable only through the arc just added. The
/// marked set must still be exact in every interleaving.
fn double_move_shared() -> Built {
    let mut g = GraphStore::with_capacity(8);
    let root = g.alloc(NodeLabel::If).unwrap();
    let a = g.alloc(NodeLabel::If).unwrap();
    let b = g.alloc(NodeLabel::If).unwrap();
    let c = g.alloc(NodeLabel::If).unwrap();
    let d = g.alloc(NodeLabel::lit_int(1)).unwrap();
    let _stray = g.alloc(NodeLabel::lit_int(9)).unwrap();
    g.connect(root, a);
    g.connect(root, b);
    g.connect(a, b);
    g.connect(b, c);
    g.connect(c, d);
    g.set_root(root);
    let initial = mark1_seed(&g);
    Built {
        kind: PassKind::Mark1,
        g,
        state: r_state(RMode::Simple),
        initial,
        muts: vec![
            MutAction::AddReference { a, b, c },
            MutAction::DeleteReference { a: b, b: c },
            MutAction::AddReference { a, b: c, c: d },
            MutAction::DeleteReference { a: c, b: d },
        ],
        tasks: TaskEndpoints::new(),
        template: None,
        end: end_exact(),
    }
}

/// Mid-mark deletion creating floating garbage: root → a → b → d; the arc
/// a → b is severed while marking may or may not have passed it. b and d
/// may legitimately end up marked (they were live at cycle start) — the
/// contract is the safe/live bound, and the stray vertex must never be
/// marked.
fn deref_drops_subtree() -> Built {
    let mut g = GraphStore::with_capacity(8);
    let root = g.alloc(NodeLabel::If).unwrap();
    let a = g.alloc(NodeLabel::If).unwrap();
    let b = g.alloc(NodeLabel::If).unwrap();
    let d = g.alloc(NodeLabel::lit_int(2)).unwrap();
    let _stray = g.alloc(NodeLabel::lit_int(9)).unwrap();
    g.connect(root, a);
    g.connect(a, b);
    g.connect(b, d);
    g.vertex_mut(a)
        .set_request_kind(0, Some(RequestKind::Eager));
    g.vertex_mut(b).add_requester(Requester::Vertex(a));
    g.set_root(root);
    let initial = mark1_seed(&g);
    Built {
        kind: PassKind::Mark1,
        g,
        state: r_state(RMode::Simple),
        initial,
        muts: vec![MutAction::Dereference { x: a, y: b }],
        tasks: TaskEndpoints::new(),
        template: None,
        end: end_safe(),
    }
}

/// Restructuring splices an arc to a previously unreachable component:
/// root → a, plus an island b → d. Mid-mark, `root → b` is grown via
/// `coop_r_arc` — depending on root's color this hangs a mark on root,
/// executes synchronously against the virtual extra root, or just adds the
/// arc. The island must be marked in every interleaving.
fn grow_arc_late() -> Built {
    let mut g = GraphStore::with_capacity(8);
    let root = g.alloc(NodeLabel::If).unwrap();
    let a = g.alloc(NodeLabel::lit_int(1)).unwrap();
    let b = g.alloc(NodeLabel::If).unwrap();
    let d = g.alloc(NodeLabel::lit_int(2)).unwrap();
    let _stray = g.alloc(NodeLabel::lit_int(9)).unwrap();
    g.connect(root, a);
    g.connect(b, d);
    g.set_root(root);
    let initial = mark1_seed(&g);
    Built {
        kind: PassKind::Mark1,
        g,
        state: r_state(RMode::Simple),
        initial,
        muts: vec![MutAction::GrowArc { from: root, to: b }],
        tasks: TaskEndpoints::new(),
        template: None,
        end: end_exact(),
    }
}

fn inc_template() -> Template {
    Template::new(
        "inc",
        1,
        vec![
            TemplateNode::new(
                NodeLabel::Prim(PrimOp::Add),
                vec![TemplateRef::Param(0), TemplateRef::Local(1)],
            ),
            TemplateNode::new(NodeLabel::lit_int(1), vec![]),
        ],
    )
    .unwrap()
}

/// `expand-node` mid-mark: an application vertex is expanded while marking
/// races past it. The fresh body must be marked whether the expansion hits
/// the vertex unmarked, transient, or marked.
fn expand_mid_mark() -> Built {
    let mut g = GraphStore::with_capacity(8);
    let root = g.alloc(NodeLabel::If).unwrap();
    let app = g.alloc(NodeLabel::Apply).unwrap();
    let arg = g.alloc(NodeLabel::lit_int(41)).unwrap();
    let _stray = g.alloc(NodeLabel::lit_int(9)).unwrap();
    g.connect(root, app);
    g.connect(app, arg);
    g.set_root(root);
    let initial = mark1_seed(&g);
    Built {
        kind: PassKind::Mark1,
        g,
        state: r_state(RMode::Simple),
        initial,
        muts: vec![MutAction::Expand {
            at: app,
            actuals: vec![arg],
        }],
        tasks: TaskEndpoints::new(),
        template: Some(inc_template()),
        end: end_exact(),
    }
}

/// The re-marking diamond (Figure 5-2's upgrade rule): the eager path can
/// reach d first, forcing the vital path to re-mark d and everything below
/// it. Exact priorities and closure are demanded in every interleaving.
fn shared_upgrade() -> Built {
    let mut g = GraphStore::with_capacity(8);
    let root = g.alloc(NodeLabel::If).unwrap();
    let d = g.alloc(NodeLabel::If).unwrap();
    let below = g.alloc(NodeLabel::lit_int(0)).unwrap();
    let mid = g.alloc(NodeLabel::If).unwrap();
    let _stray = g.alloc(NodeLabel::lit_int(9)).unwrap();
    g.connect(root, d);
    g.vertex_mut(root)
        .set_request_kind(0, Some(RequestKind::Eager));
    g.connect(root, mid);
    g.vertex_mut(root)
        .set_request_kind(1, Some(RequestKind::Vital));
    g.connect(mid, d);
    g.vertex_mut(mid)
        .set_request_kind(0, Some(RequestKind::Vital));
    g.connect(d, below);
    g.vertex_mut(d)
        .set_request_kind(0, Some(RequestKind::Vital));
    g.set_root(root);
    let initial = mark2_seed(&g);
    Built {
        kind: PassKind::Mark2,
        g,
        state: r_state(RMode::Priority),
        initial,
        muts: vec![],
        tasks: TaskEndpoints::new(),
        template: None,
        end: EndCheck {
            exact: true,
            priorities: true,
            closure: true,
        },
    }
}

/// Priority marking over a cycle with mixed request kinds:
/// root -v-> x -e-> y -v-> x (back-edge), y → z unrequested. The min-over-
/// path / max-over-paths fixpoint must be reached regardless of the order
/// marks chase the cycle.
fn cycle_priorities() -> Built {
    let mut g = GraphStore::with_capacity(8);
    let root = g.alloc(NodeLabel::If).unwrap();
    let x = g.alloc(NodeLabel::If).unwrap();
    let y = g.alloc(NodeLabel::If).unwrap();
    let z = g.alloc(NodeLabel::lit_int(0)).unwrap();
    let _stray = g.alloc(NodeLabel::lit_int(9)).unwrap();
    g.connect(root, x);
    g.vertex_mut(root)
        .set_request_kind(0, Some(RequestKind::Vital));
    g.connect(x, y);
    g.vertex_mut(x)
        .set_request_kind(0, Some(RequestKind::Eager));
    g.connect(y, x);
    g.vertex_mut(y)
        .set_request_kind(0, Some(RequestKind::Vital));
    g.connect(y, z);
    g.set_root(root);
    let initial = mark2_seed(&g);
    Built {
        kind: PassKind::Mark2,
        g,
        state: r_state(RMode::Priority),
        initial,
        muts: vec![],
        tasks: TaskEndpoints::new(),
        template: None,
        end: EndCheck {
            exact: true,
            priorities: true,
            closure: true,
        },
    }
}

/// The move adversary under priority marking. Reachability is preserved
/// (exact marked set), but the deleted path may have lent c a priority the
/// final graph no longer justifies — so exact priorities are *not*
/// demanded, only closure (the new arc is unrequested, needing ≥ Reserve).
fn move_mid_mark2() -> Built {
    let mut g = GraphStore::with_capacity(8);
    let root = g.alloc(NodeLabel::If).unwrap();
    let a = g.alloc(NodeLabel::If).unwrap();
    let b = g.alloc(NodeLabel::If).unwrap();
    let c = g.alloc(NodeLabel::lit_int(1)).unwrap();
    let _stray = g.alloc(NodeLabel::lit_int(9)).unwrap();
    g.connect(root, a);
    g.vertex_mut(root)
        .set_request_kind(0, Some(RequestKind::Vital));
    g.connect(a, b);
    g.vertex_mut(a)
        .set_request_kind(0, Some(RequestKind::Eager));
    g.connect(b, c);
    g.vertex_mut(b)
        .set_request_kind(0, Some(RequestKind::Vital));
    g.set_root(root);
    let initial = mark2_seed(&g);
    Built {
        kind: PassKind::Mark2,
        g,
        state: r_state(RMode::Priority),
        initial,
        muts: vec![
            MutAction::AddReference { a, b, c },
            MutAction::DeleteReference { a: b, b: c },
        ],
        tasks: TaskEndpoints::new(),
        template: None,
        end: EndCheck {
            exact: true,
            priorities: false,
            closure: true,
        },
    }
}

/// `M_T` with shared structure and a requester added mid-pass: seeds are
/// the endpoints of a task `<a, b>`; the mutator gives c a new requester d
/// while c may already be T-marked (snapshot semantics — the arc is then
/// deliberately not chased). Contract: `T_initial ⊆ marked ⊆ T_final`.
fn mark3_requesters() -> Built {
    let mut g = GraphStore::with_capacity(8);
    let a = g.alloc(NodeLabel::Prim(PrimOp::Add)).unwrap();
    let b = g.alloc(NodeLabel::lit_int(1)).unwrap();
    let c = g.alloc(NodeLabel::If).unwrap();
    let e = g.alloc(NodeLabel::lit_int(2)).unwrap();
    let d = g.alloc(NodeLabel::If).unwrap();
    let _stray = g.alloc(NodeLabel::lit_int(9)).unwrap();
    g.connect(a, b);
    g.vertex_mut(a)
        .set_request_kind(0, Some(RequestKind::Vital));
    g.connect(a, c); // unrequested: a T-arc
    g.connect(c, e); // unrequested: a T-arc
    g.vertex_mut(b).add_requester(Requester::Vertex(a));
    g.set_root(a);

    let mut tasks = TaskEndpoints::new();
    tasks.push_task(Some(a), b);
    let mut state = MarkState::new();
    state.begin_t(tasks.seeds().len() as u32);
    let initial = tasks
        .seeds()
        .iter()
        .map(|&v| MarkMsg::Mark3 {
            v,
            par: MarkParent::TaskRootPar,
        })
        .collect();
    Built {
        kind: PassKind::Mark3,
        g,
        state,
        initial,
        muts: vec![MutAction::AddRequester { v: c, from: d }],
        tasks,
        template: None,
        end: end_safe(),
    }
}

/// The full corpus, in report order.
pub fn corpus() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "mark1-cycle-diamond",
            build: cycle_diamond,
        },
        Scenario {
            name: "mark1-move-mid-mark",
            build: move_mid_mark,
        },
        Scenario {
            name: "mark1-double-move-shared",
            build: double_move_shared,
        },
        Scenario {
            name: "mark1-deref-drops-subtree",
            build: deref_drops_subtree,
        },
        Scenario {
            name: "mark1-grow-arc-late",
            build: grow_arc_late,
        },
        Scenario {
            name: "mark1-expand-mid-mark",
            build: expand_mid_mark,
        },
        Scenario {
            name: "mark2-shared-upgrade",
            build: shared_upgrade,
        },
        Scenario {
            name: "mark2-cycle-priorities",
            build: cycle_priorities,
        },
        Scenario {
            name: "mark2-move-mid-mark",
            build: move_mid_mark2,
        },
        Scenario {
            name: "mark3-shared-requesters",
            build: mark3_requesters,
        },
    ]
}

/// Looks a scenario up by name (for trace replay).
pub fn by_name(name: &str) -> Option<Scenario> {
    corpus().into_iter().find(|s| s.name == name)
}
