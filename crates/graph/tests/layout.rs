//! Size and thread-safety pins of the vertex record. A vertex is touched
//! once per task and first-touched once per slot of a growing store, so its
//! size is a cost every workload pays; a field that silently grows it (or a
//! capture list that goes back inside `Value`) fails here, not as a slower
//! number somewhere else.

use std::mem::size_of;

use dgr_graph::{GraphStore, NodeLabel, Value, Vertex};

#[test]
fn a_value_and_a_label_are_two_words() {
    assert_eq!(size_of::<Value>(), 16);
    assert_eq!(size_of::<Option<Value>>(), 16);
    assert_eq!(size_of::<NodeLabel>(), 16);
}

#[test]
fn a_vertex_is_one_record_of_three_cache_lines() {
    assert!(
        size_of::<Vertex>() <= 192,
        "a vertex is {} bytes",
        size_of::<Vertex>()
    );
}

/// Compile-time: the store and what it holds cross threads
/// (`SharedGraph`, the threaded runtime) — shared captures must not cost
/// that.
#[test]
fn the_store_and_its_contents_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Value>();
    assert_send_sync::<Vertex>();
    assert_send_sync::<GraphStore>();
}
