//! A vertex behaves like four plain parallel `Vec`s, however its arcs and
//! requesters are laid out, and a recycled slot is a fresh vertex.
//!
//! The model below is the behaviour every caller relies on. Lists run from
//! 0 to 8 entries, so a representation that keeps short lists in the
//! record crosses between its short and long forms in both directions,
//! many times per case.

use dgr_graph::{
    Color, GraphStore, NodeLabel, PrimOp, Priority, RequestKind, Requester, Slot, Value, Vertex,
    VertexId,
};
use proptest::prelude::*;

/// The longest list a case builds.
const MAX_LEN: usize = 8;

/// `(operation, small id, index, list)` — what each field means depends on
/// the operation; see [`apply`].
type Op = (u8, u32, usize, Vec<u32>);

#[derive(Debug, Default)]
struct Model {
    args: Vec<VertexId>,
    kinds: Vec<Option<RequestKind>>,
    values: Vec<Option<Value>>,
    requested: Vec<Requester>,
}

fn requester(n: u32) -> Requester {
    match n % 4 {
        0 => Requester::External,
        n => Requester::Vertex(VertexId::new(n)),
    }
}

fn kind(n: usize) -> Option<RequestKind> {
    [None, Some(RequestKind::Eager), Some(RequestKind::Vital)][n % 3]
}

fn value(n: u32) -> Value {
    match n % 3 {
        0 => Value::Int(i64::from(n)),
        1 => Value::Cons(VertexId::new(n), VertexId::new(n + 1)),
        _ => Value::Nil,
    }
}

/// Applies one operation to the vertex and to the model, comparing what
/// the two return.
fn apply(v: &mut Vertex, m: &mut Model, (op, id, i, list): &Op) -> Result<(), TestCaseError> {
    let (id, len) = (*id, m.args.len());
    let target = VertexId::new(id);
    match op {
        0 if len < MAX_LEN => {
            v.push_arg(target);
            m.args.push(target);
            m.kinds.push(None);
            m.values.push(None);
        }
        1 => {
            let want = m.args.iter().position(|&a| a == target).map(|at| {
                m.args.remove(at);
                m.values.remove(at);
                m.kinds.remove(at)
            });
            prop_assert_eq!(v.remove_arg(target), want);
        }
        2 if len > 0 => {
            let at = i % len;
            m.values.remove(at);
            let want = (m.args.remove(at), m.kinds.remove(at));
            prop_assert_eq!(v.remove_arg_at(at), want);
        }
        3 if len > 0 => {
            let at = i % len;
            let want = std::mem::replace(&mut m.kinds[at], kind(id as usize));
            prop_assert_eq!(v.set_request_kind(at, kind(id as usize)), want);
        }
        4 if len > 0 => {
            v.set_arg_value(i % len, value(id));
            m.values[i % len] = Some(value(id));
        }
        5 => {
            let args: Vec<VertexId> = list.iter().map(|&t| VertexId::new(t)).collect();
            v.replace_args(args.clone());
            m.kinds = vec![None; args.len()];
            m.values = vec![None; args.len()];
            m.args = args;
        }
        6 => {
            v.clear_for_free();
            prop_assert!(v.label.is_hole() && v.value.is_none());
            *m = Model::default();
        }
        7 if m.requested.len() < MAX_LEN => {
            v.add_requester(requester(id));
            m.requested.push(requester(id));
        }
        8 => {
            let at = m.requested.iter().position(|&r| r == requester(id));
            if let Some(at) = at {
                m.requested.remove(at);
            }
            prop_assert_eq!(v.remove_requester(requester(id)), at.is_some());
        }
        9 => {
            // Keep by position in the list: bit k of `i` decides entry k.
            let before = m.requested.len();
            let mut k = 0;
            m.requested.retain(|_| {
                k += 1;
                i >> (k - 1) & 1 == 1
            });
            let mut k = 0;
            let removed = v.retain_requesters(|_| {
                k += 1;
                i >> (k - 1) & 1 == 1
            });
            prop_assert_eq!(removed, before - m.requested.len());
        }
        10 => {
            let taken = v.take_requested();
            prop_assert_eq!(&taken[..], &m.requested[..]);
            m.requested.clear();
        }
        _ => {}
    }
    Ok(())
}

/// The vertex the model describes, built by the shortest route.
fn rebuilt(m: &Model, like: &Vertex) -> Vertex {
    let mut v = Vertex::new(like.label.clone());
    v.replace_args(m.args.clone());
    for (i, (k, val)) in m.kinds.iter().zip(&m.values).enumerate() {
        v.set_request_kind(i, *k);
        if let Some(val) = val {
            v.set_arg_value(i, val.clone());
        }
    }
    for &r in &m.requested {
        v.add_requester(r);
    }
    v
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0u8..11,
            0u32..5,
            0usize..256,
            proptest::collection::vec(0u32..5, 0..MAX_LEN + 1),
        ),
        1..80,
    )
}

/// Dirties every field a later owner of the slot could see.
fn scribble(g: &mut GraphStore, v: VertexId, ops: &[Op]) {
    let mut model = Model::default();
    for op in ops {
        apply(g.vertex_mut(v), &mut model, op).expect("the model test covers this");
    }
    g.vertex_mut(v).value = Some(Value::Cons(v, v));
    g.vertex_mut(v).demand = Priority::Vital;
    g.mark_mut(v, Slot::R).color = Color::Marked;
    g.mark_mut(v, Slot::T).mt_cnt = 7;
    g.touch(v);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn vertex_matches_the_parallel_vec_model(ops in ops()) {
        let mut v = Vertex::new(NodeLabel::Apply);
        let mut m = Model::default();
        for op in &ops {
            apply(&mut v, &mut m, op)?;
            prop_assert_eq!(v.args(), &m.args[..], "after {:?}", op);
            prop_assert_eq!(v.request_kinds(), &m.kinds[..], "after {:?}", op);
            prop_assert_eq!(v.arg_values(), &m.values[..], "after {:?}", op);
            prop_assert_eq!(v.requested(), &m.requested[..], "after {:?}", op);
            prop_assert!(v.check_consistency(), "after {:?}", op);
            // Equality sees the lists, not the route that built them.
            prop_assert_eq!(&v, &rebuilt(&m, &v), "after {:?}", op);
        }
    }

    #[test]
    fn a_recycled_slot_equals_a_fresh_vertex(ops in ops(), many in 0usize..3) {
        let mut g = GraphStore::with_capacity(3);
        let mut ids = Vec::new();
        g.alloc_many(3, &mut ids).unwrap();
        for &v in &ids {
            scribble(&mut g, v, &ops);
        }
        for &v in &ids {
            g.free(v);
        }
        // Through `alloc_many` for the first `many` slots, `alloc` for the rest.
        let label = NodeLabel::Prim(PrimOp::Add);
        g.alloc_many(many, &mut ids).unwrap();
        for v in ids {
            prop_assert_eq!(g.vertex(v), &Vertex::new(NodeLabel::Hole));
        }
        for _ in many..3 {
            let v = g.alloc(label.clone()).unwrap();
            prop_assert_eq!(g.vertex(v), &Vertex::new(label.clone()));
            prop_assert!(!g.is_touched(v));
        }
        prop_assert!(g.check_consistency().is_ok());
    }
}
