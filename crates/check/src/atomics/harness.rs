//! The model-checking scenario corpus for the lock-free substrate, and
//! the seeded-mutation table that proves the corpus is not vacuous.
//!
//! Each scenario instantiates *production* substrate code —
//! [`StealDeque`], [`SpscRing`], [`MarkWords`], [`QuiesceState`] — with
//! [`ShimAtomics`] and drives the smallest thread pattern that exercises
//! one protocol edge. Scenario checks are exact conservation/routing
//! invariants (`shim_assert`); stale reads of [`ShimCell`] payload data
//! are caught by the model's race detector without any assertion at all.
//!
//! Scenarios are deliberately tiny (two or three virtual threads, a
//! handful of operations): the bounded-exhaustive search covers them
//! completely at preemption bound 2, and every seeded mutation in
//! [`MUTATIONS`] is observable within that bound plus the weak-memory
//! read choices.

use std::sync::Arc;

use dgr_atomic::Site;
use dgr_graph::markword::{Claim, Settle};
use dgr_graph::{Color, MarkParent, MarkWords, NodeLabel, Slot, Vertex, VertexId};
use dgr_sim::deque::Steal;
use dgr_sim::{QuiesceState, SpscRing, StealDeque};

use super::shim::{shim_assert, spawn, ShimAtomics, ShimCell};

/// Sentinel for "this thread recorded no value" (distinguishable from a
/// stolen stale `0`, which is itself a bug we must observe).
const NONE: u64 = u64::MAX;

/// One model-checking scenario.
pub struct Scenario {
    /// Stable name (used by mutations, reports, and the CLI).
    pub name: &'static str,
    /// What the scenario exercises (one line, for reports).
    pub about: &'static str,
    /// Builds a fresh scenario body for one execution.
    pub make: fn() -> Box<dyn FnOnce() + Send + 'static>,
}

/// Owner pops while a thief makes two steal attempts over a two-task
/// deque. The dangerous shape is the owner's non-CAS fast path
/// (`top < bottom` after its decrement) racing a thief whose *stale*
/// bottom read lets it steal the same deepest cell — only the SeqCst
/// store/load pair on `bottom`/`top` forbids it. Every task must be
/// consumed exactly once.
fn deque_last_elem() -> Box<dyn FnOnce() + Send + 'static> {
    Box::new(|| {
        let q: Arc<StealDeque<ShimAtomics>> = Arc::new(StealDeque::new(8));
        q.push(10).unwrap();
        q.push(20).unwrap();
        let got = Arc::new(ShimCell::new(NONE));
        let got2 = Arc::new(ShimCell::new(NONE));
        let t = {
            let q = Arc::clone(&q);
            let (got, got2) = (Arc::clone(&got), Arc::clone(&got2));
            spawn(move || {
                if let Steal::Success(v) = q.steal() {
                    got.write(v);
                }
                if let Steal::Success(v) = q.steal() {
                    got2.write(v);
                }
            })
        };
        let mut seen = Vec::new();
        if let Some(v) = q.pop() {
            seen.push(v);
        }
        t.join();
        for c in [&got, &got2] {
            let tv = c.read();
            if tv != NONE {
                seen.push(tv);
            }
        }
        // Drain any leftover state (a double-take shows up as a repeated
        // value across the pop, the steals, and this drain).
        for _ in 0..3 {
            if let Some(v) = q.pop() {
                seen.push(v);
            }
        }
        seen.sort_unstable();
        shim_assert(seen == [10, 20], || {
            format!("last-element conservation violated: consumed {seen:?}, pushed [10, 20]")
        });
    })
}

/// Owner pushes while a thief steals: theft must observe fully published
/// cells (never the ring's initial garbage).
fn deque_publish() -> Box<dyn FnOnce() + Send + 'static> {
    Box::new(|| {
        let q: Arc<StealDeque<ShimAtomics>> = Arc::new(StealDeque::new(8));
        let got = Arc::new(ShimCell::new(NONE));
        let t = {
            let q = Arc::clone(&q);
            let got = Arc::clone(&got);
            spawn(move || {
                if let Steal::Success(v) = q.steal() {
                    got.write(v);
                }
            })
        };
        q.push(10).unwrap();
        q.push(20).unwrap();
        let mut seen = Vec::new();
        for _ in 0..3 {
            if let Some(v) = q.pop() {
                seen.push(v);
            }
        }
        t.join();
        let tv = got.read();
        if tv != NONE {
            seen.push(tv);
        }
        seen.sort_unstable();
        shim_assert(seen == [10, 20], || {
            format!("publish conservation violated: consumed {seen:?}, pushed [10, 20]")
        });
    })
}

/// The `steal_half` batching path under `thieves` concurrent thieves:
/// every pushed task is consumed exactly once, wherever it lands.
pub fn make_steal_half(thieves: usize) -> Box<dyn FnOnce() + Send + 'static> {
    Box::new(move || {
        const TASKS: [u64; 3] = [10, 20, 30];
        let q: Arc<StealDeque<ShimAtomics>> = Arc::new(StealDeque::new(8));
        // Per-thief recording cells (up to all tasks each).
        let cells: Vec<Arc<Vec<ShimCell>>> = (0..thieves)
            .map(|_| Arc::new((0..TASKS.len()).map(|_| ShimCell::new(NONE)).collect()))
            .collect();
        let handles: Vec<_> = cells
            .iter()
            .map(|cells| {
                let q = Arc::clone(&q);
                let cells = Arc::clone(cells);
                spawn(move || {
                    let mut out = Vec::new();
                    q.steal_half(&mut out);
                    for (i, v) in out.iter().enumerate() {
                        cells[i].write(*v);
                    }
                })
            })
            .collect();
        for v in TASKS {
            q.push(v).unwrap();
        }
        let mut seen = Vec::new();
        for _ in 0..TASKS.len() + 1 {
            if let Some(v) = q.pop() {
                seen.push(v);
            }
        }
        for h in handles {
            h.join();
        }
        for cells in &cells {
            for c in cells.iter() {
                let v = c.read();
                if v != NONE {
                    seen.push(v);
                }
            }
        }
        seen.sort_unstable();
        shim_assert(seen == TASKS, || {
            format!("steal_half conservation violated: consumed {seen:?}, pushed {TASKS:?}")
        });
    })
}

fn steal_half_1() -> Box<dyn FnOnce() + Send + 'static> {
    make_steal_half(1)
}

fn steal_half_2() -> Box<dyn FnOnce() + Send + 'static> {
    make_steal_half(2)
}

/// SPSC mailbox ring: the consumer drains concurrently with the
/// producer's pushes and must see an exact in-order prefix of them.
fn mailbox_spsc() -> Box<dyn FnOnce() + Send + 'static> {
    Box::new(|| {
        let ring: Arc<SpscRing<ShimAtomics>> = Arc::new(SpscRing::new(8));
        let rec: Arc<Vec<ShimCell>> = Arc::new((0..3).map(|_| ShimCell::new(NONE)).collect());
        let t = {
            let ring = Arc::clone(&ring);
            let rec = Arc::clone(&rec);
            spawn(move || {
                let mut out = Vec::new();
                ring.drain(&mut out);
                ring.drain(&mut out);
                for (i, v) in out.iter().enumerate() {
                    if i < rec.len() {
                        rec[i].write(*v);
                    }
                }
                shim_assert(out.len() <= 2, || {
                    format!("consumer drained {} tasks of 2 sent", out.len())
                });
            })
        };
        ring.push(7).unwrap();
        ring.push(9).unwrap();
        t.join();
        let mut consumed: Vec<u64> = rec
            .iter()
            .map(|c| c.read())
            .filter(|&v| v != NONE)
            .collect();
        // Whatever the consumer missed is still in the ring.
        let mut rest = Vec::new();
        ring.drain(&mut rest);
        consumed.extend(rest);
        shim_assert(consumed == [7, 9], || {
            format!("spsc delivery violated: consumed {consumed:?}, sent [7, 9]")
        });
    })
}

/// Mark-word claim publication: a worker that observes a claimed color
/// via a lock-free probe happens-after everything the claimer did first.
fn markword_claim_publish() -> Box<dyn FnOnce() + Send + 'static> {
    Box::new(|| {
        let words: Arc<MarkWords<ShimAtomics>> = Arc::new(MarkWords::new(1));
        let prep = Arc::new(ShimCell::new(NONE));
        let t1 = {
            let words = Arc::clone(&words);
            let prep = Arc::clone(&prep);
            spawn(move || {
                prep.write(42);
                words.try_claim(0, 1, 1, MarkParent::RootPar);
            })
        };
        let t2 = {
            let words = Arc::clone(&words);
            let prep = Arc::clone(&prep);
            spawn(move || {
                if words.probe(0, 1).is_some() {
                    // The claim is visible, so its prep must be too; a
                    // stale read here is a data race the model reports.
                    let v = prep.read();
                    shim_assert(v == 42, || {
                        format!("probe saw the claim but prep reads {v}")
                    });
                }
            })
        };
        t1.join();
        t2.join();
    })
}

/// Two rival claimants: exactly one wins, and the eventual drain returns
/// the *winner's* parent (the PR 6 parent-clobber regression pin).
fn markword_parent_race() -> Box<dyn FnOnce() + Send + 'static> {
    Box::new(|| {
        let words: Arc<MarkWords<ShimAtomics>> = Arc::new(MarkWords::new(1));
        let w1 = Arc::new(ShimCell::new(0));
        let w2 = Arc::new(ShimCell::new(0));
        let t1 = {
            let words = Arc::clone(&words);
            let w1 = Arc::clone(&w1);
            spawn(move || {
                if let Claim::Won(_) = words.try_claim(0, 1, 1, MarkParent::RootPar) {
                    w1.write(1);
                }
            })
        };
        let t2 = {
            let words = Arc::clone(&words);
            let w2 = Arc::clone(&w2);
            spawn(move || {
                if let Claim::Won(_) = words.try_claim(0, 1, 1, MarkParent::TaskRootPar) {
                    w2.write(1);
                }
            })
        };
        t1.join();
        t2.join();
        let (a, b) = (w1.read(), w2.read());
        shim_assert(a + b == 1, || {
            format!("claim atomicity violated: {} winners", a + b)
        });
        let expect = if a == 1 {
            MarkParent::RootPar
        } else {
            MarkParent::TaskRootPar
        };
        let got = words.complete_child(0, 1);
        shim_assert(got == Some(expect), || {
            format!("drain returned {got:?}, winner registered {expect:?}")
        });
    })
}

/// Settling a duplicate visit at the spawn site. An expander claims `p`
/// (vertex 0) with one child `c` (vertex 1) and settles or spawns it;
/// a rival writes a payload and then claims `c` under another parent. A
/// spawned mark runs on the expander as its task would: claim `c` or
/// lose it, then return to `p`; a settled one returns to `p` in place.
/// Whichever way `c` is decided, `p` must complete exactly once, and a
/// settle that saw `c` visited must see the payload written before the
/// claim it saw (a stale read is a race the model reports).
fn markword_settle_at_spawn() -> Box<dyn FnOnce() + Send + 'static> {
    Box::new(|| {
        let words: Arc<MarkWords<ShimAtomics>> = Arc::new(MarkWords::new(2));
        let payload = Arc::new(ShimCell::new(NONE));
        let t = {
            let words = Arc::clone(&words);
            let payload = Arc::clone(&payload);
            spawn(move || {
                payload.write(42);
                words.try_claim(1, 1, 0, MarkParent::TaskRootPar);
            })
        };
        let won = words.try_claim(0, 1, 1, MarkParent::RootPar);
        shim_assert(won == Claim::Won(Color::Transient), || {
            format!("the expander's claim on p read {won:?}")
        });
        let mut completions = 0;
        match words.settle_child(1, 1) {
            Settle::Spawn => {
                words.try_claim(1, 1, 0, MarkParent::Vertex(VertexId::new(0)));
            }
            Settle::Settled => {
                let v = payload.read();
                shim_assert(v == 42, || {
                    format!("settle saw c visited but the payload reads {v}")
                });
            }
        }
        if words.complete_child(0, 1) == Some(MarkParent::RootPar) {
            completions += 1;
        }
        t.join();
        shim_assert(completions == 1, || {
            format!("p completed {completions} times, want exactly once")
        });
        let p = words.probe_state(0, 1);
        shim_assert(p == Some((Color::Marked, 0)), || {
            format!("p ends as {p:?}, want Marked with nothing owed")
        });
    })
}

/// A return run in place walks on up `mt_par`. Vertex `g` (0) is
/// claimed with one child, `p` (1), and `p` with two children. Two
/// workers each write a payload and then run the return one child of
/// `p` owes it, as the threaded runtime does where a mark ends: drain
/// `p`, and whoever drains it walks on to `g`. Exactly one of them must
/// reach `rootpar`, and it must read both payloads — the sibling's only
/// through the Acquire half of `p`'s drain (a stale read is a race the
/// model reports).
fn markword_return_in_place() -> Box<dyn FnOnce() + Send + 'static> {
    Box::new(|| {
        let words: Arc<MarkWords<ShimAtomics>> = Arc::new(MarkWords::new(2));
        words.try_claim(0, 1, 1, MarkParent::RootPar);
        words.try_claim(1, 1, 2, MarkParent::Vertex(VertexId::new(0)));
        let payloads: Arc<[ShimCell; 2]> = Arc::new([ShimCell::new(NONE), ShimCell::new(NONE)]);
        let roots: Arc<[ShimCell; 2]> = Arc::new([ShimCell::new(0), ShimCell::new(0)]);
        let workers: Vec<_> = (0..2)
            .map(|me| {
                let words = Arc::clone(&words);
                let (payloads, roots) = (Arc::clone(&payloads), Arc::clone(&roots));
                spawn(move || {
                    payloads[me].write(10 + me as u64);
                    let mut to = MarkParent::Vertex(VertexId::new(1));
                    while let MarkParent::Vertex(v) = to {
                        match words.complete_child(v.index(), 1) {
                            Some(up) => to = up,
                            None => return,
                        }
                    }
                    roots[me].write(1);
                    for (i, c) in payloads.iter().enumerate() {
                        let v = c.read();
                        shim_assert(v == 10 + i as u64, || {
                            format!("rootpar reached but payload {i} reads {v}")
                        });
                    }
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        let reached = roots[0].read() + roots[1].read();
        shim_assert(reached == 1, || {
            format!("rootpar reached {reached} times, want exactly once")
        });
    })
}

/// A leaf marked where it is found. Two expanders each claim their own
/// parent, `p0` (vertex 0) or `p1` (vertex 1), with one child, and both
/// parents' child is the leaf `c` (vertex 2). Each writes a payload,
/// then decides `c` as the threaded runtime's claim winner does: settle
/// it if the probe sees it visited, otherwise claim it in place and
/// settle it if that claim loses; then it drains its own parent by one.
/// Exactly one claim on `c` may win, `c` must end Marked with the
/// winner's parent, each parent must complete exactly once, and a thread
/// that settles `c` must read the winner's payload — through the settle
/// probe's Acquire or through the losing claim's (a stale read is a race
/// the model reports).
fn markword_leaf_in_place() -> Box<dyn FnOnce() + Send + 'static> {
    const ABOVE: [MarkParent; 2] = [MarkParent::RootPar, MarkParent::TaskRootPar];
    Box::new(|| {
        let words: Arc<MarkWords<ShimAtomics>> = Arc::new(MarkWords::new(3));
        let payloads: Arc<[ShimCell; 2]> = Arc::new([ShimCell::new(NONE), ShimCell::new(NONE)]);
        let wins: Arc<[ShimCell; 2]> = Arc::new([ShimCell::new(0), ShimCell::new(0)]);
        let completions: Arc<[ShimCell; 2]> = Arc::new([ShimCell::new(0), ShimCell::new(0)]);
        let expanders: Vec<_> = (0..2)
            .map(|me| {
                let words = Arc::clone(&words);
                let (payloads, wins) = (Arc::clone(&payloads), Arc::clone(&wins));
                let completions = Arc::clone(&completions);
                spawn(move || {
                    let won = words.try_claim(me, 1, 1, ABOVE[me]);
                    shim_assert(won == Claim::Won(Color::Transient), || {
                        format!("expander {me}'s claim on its parent read {won:?}")
                    });
                    payloads[me].write(10 + me as u64);
                    let parent = MarkParent::Vertex(VertexId::new(me as u32));
                    let marked = words.settle_child(2, 1) == Settle::Spawn
                        && words.try_claim(2, 1, 0, parent) == Claim::Won(Color::Marked);
                    if marked {
                        wins[me].write(1);
                    } else {
                        let other = 1 - me;
                        let v = payloads[other].read();
                        shim_assert(v == 10 + other as u64, || {
                            format!("expander {me} settled c but the winner's payload reads {v}")
                        });
                    }
                    if words.complete_child(me, 1) == Some(ABOVE[me]) {
                        completions[me].write(1);
                    }
                })
            })
            .collect();
        for e in expanders {
            e.join();
        }
        let (w0, w1) = (wins[0].read(), wins[1].read());
        shim_assert(w0 + w1 == 1, || {
            format!("{} claims on c won, want exactly one", w0 + w1)
        });
        let c = words.probe_state(2, 1);
        shim_assert(c == Some((Color::Marked, 0)), || {
            format!("c ends as {c:?}, want Marked with nothing owed")
        });
        let mut verts = vec![Vertex::new(NodeLabel::Hole); 3];
        words.write_back(&mut verts, Slot::R, 1);
        let got = verts[2].mark_at(Slot::R, 1).mt_par;
        let want = Some(MarkParent::Vertex(VertexId::new(u32::from(w0 == 0))));
        shim_assert(got == want, || {
            format!("write_back gives c the parent {got:?}, the winner was {want:?}")
        });
        for (p, done) in completions.iter().enumerate() {
            let n = done.read();
            shim_assert(n == 1, || {
                format!("p{p} completed {n} times, want exactly once")
            });
        }
    })
}

/// Quiescence: the worker whose release drives the count to zero must
/// see every other worker's task effects through the counter's
/// release/acquire chain.
fn quiesce_publish() -> Box<dyn FnOnce() + Send + 'static> {
    Box::new(|| {
        let q: Arc<QuiesceState<ShimAtomics>> = Arc::new(QuiesceState::new(2));
        let e1 = Arc::new(ShimCell::new(NONE));
        let e2 = Arc::new(ShimCell::new(NONE));
        let t1 = {
            let q = Arc::clone(&q);
            let (e1, e2) = (Arc::clone(&e1), Arc::clone(&e2));
            spawn(move || {
                e1.write(11);
                if q.release(1) {
                    // Zero-observer: the other worker's effect must be
                    // visible (stale read = race).
                    let v = e2.read();
                    shim_assert(v == 22, || format!("quiescence saw effect {v}, want 22"));
                }
            })
        };
        let t2 = {
            let q = Arc::clone(&q);
            let (e1, e2) = (Arc::clone(&e1), Arc::clone(&e2));
            spawn(move || {
                e2.write(22);
                if q.release(1) {
                    let v = e1.read();
                    shim_assert(v == 11, || format!("quiescence saw effect {v}, want 11"));
                }
            })
        };
        t1.join();
        t2.join();
        shim_assert(q.is_done(), || "both released but not done".into());
        shim_assert(q.pending() == 0, || {
            format!("pending {} after quiescence", q.pending())
        });
    })
}

/// Credit-batched quiescence. The main thread plays a worker running the
/// seed: it publishes one task into the other worker's ring through
/// [`QuiesceState::publish_covered`] — a whole block registered, one unit
/// used — and then idles, releasing the seed and the unused credit. The
/// other worker drains once. While the task sits unexecuted the count
/// must not reach zero, however much credit its publisher holds or has
/// returned; once every worker has idled it must. Whoever latches `done`
/// must find the publisher finished.
fn quiesce_credit() -> Box<dyn FnOnce() + Send + 'static> {
    Box::new(|| {
        let q: Arc<QuiesceState<ShimAtomics>> = Arc::new(QuiesceState::new(1));
        let ring: Arc<SpscRing<ShimAtomics>> = Arc::new(SpscRing::new(8));
        let published = Arc::new(ShimCell::new(0));
        let t = {
            let (q, ring) = (Arc::clone(&q), Arc::clone(&ring));
            let published = Arc::clone(&published);
            spawn(move || {
                let mut out = Vec::new();
                if ring.drain(&mut out) == 0 {
                    shim_assert(!q.is_done(), || {
                        "done latched before the published task ran".into()
                    });
                } else if q.release(out.len()) {
                    // Stale or racing read = the publisher was still
                    // inside its chain when the count hit zero.
                    let v = published.read();
                    shim_assert(v == 1, || {
                        format!("done latched with the publisher mid-chain ({v})")
                    });
                }
            })
        };
        let mut credit = 0;
        q.publish_covered(&mut credit, 1, || ring.push(7).unwrap());
        published.write(1);
        let latched = q.release(1 + credit);
        t.join();
        let mut rest = Vec::new();
        if ring.drain(&mut rest) > 0 {
            shim_assert(!latched && !q.is_done(), || {
                "done latched with the task still in the ring".into()
            });
            q.release(rest.len());
        }
        shim_assert(q.is_done(), || "every worker idle but not done".into());
        shim_assert(q.pending() == 0, || {
            format!("pending {} after quiescence", q.pending())
        });
    })
}

/// The scenario corpus, smallest first.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "deque-last-elem",
        about: "owner pop fast path vs a stale-bottom thief",
        make: deque_last_elem,
    },
    Scenario {
        name: "deque-publish",
        about: "thief steals concurrently with owner pushes",
        make: deque_publish,
    },
    Scenario {
        name: "steal-half-1",
        about: "steal_half batching vs owner, one thief",
        make: steal_half_1,
    },
    Scenario {
        name: "steal-half-2",
        about: "steal_half batching vs owner, two thieves",
        make: steal_half_2,
    },
    Scenario {
        name: "mailbox-spsc",
        about: "SPSC ring producer/consumer prefix delivery",
        make: mailbox_spsc,
    },
    Scenario {
        name: "markword-claim-publish",
        about: "probe of a claimed color publishes the claimer's prep",
        make: markword_claim_publish,
    },
    Scenario {
        name: "markword-parent-race",
        about: "rival claims: one winner, drain returns its parent",
        make: markword_parent_race,
    },
    Scenario {
        name: "markword-settle-at-spawn",
        about: "settle of a visited child: p completes once, payload visible",
        make: markword_settle_at_spawn,
    },
    Scenario {
        name: "markword-return-in-place",
        about: "a return walks up mt_par: rootpar once, both payloads visible",
        make: markword_return_in_place,
    },
    Scenario {
        name: "markword-leaf-in-place",
        about: "a shared leaf claimed in place: one winner, loser reads its payload",
        make: markword_leaf_in_place,
    },
    Scenario {
        name: "quiesce-publish",
        about: "zero-observer sees every released worker's effects",
        make: quiesce_publish,
    },
    Scenario {
        name: "quiesce-credit",
        about: "held credit never hides a published, unexecuted task",
        make: quiesce_credit,
    },
];

/// Looks up a scenario by name.
pub fn scenario(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// One seeded ordering mutation and the invariant expected to kill it.
pub struct Mutation {
    /// The weakened/moved operation.
    pub site: Site,
    /// The scenario that must catch it.
    pub scenario: &'static str,
    /// What the mutation does to the code.
    pub what: &'static str,
    /// The invariant (or race) that kills it.
    pub killed_by: &'static str,
}

/// The full mutation table: every entry must be *caught* (a clean
/// exploration of the same scenario must also pass — see
/// `check_mutation` / `check_clean`).
pub const MUTATIONS: &[Mutation] = &[
    Mutation {
        site: Site::DequeLastElem,
        scenario: "deque-last-elem",
        what: "the pop-store/steal-load SeqCst pair on bottom -> Relaxed",
        killed_by: "deepest task consumed twice (owner fast path + stale-bottom steal)",
    },
    Mutation {
        site: Site::DequeBottomPublish,
        scenario: "deque-publish",
        what: "push's bottom publish Release -> Relaxed",
        killed_by: "thief steals an unpublished cell (stale ring garbage)",
    },
    Mutation {
        site: Site::MailboxTailPublish,
        scenario: "mailbox-spsc",
        what: "ring tail publish Release -> Relaxed",
        killed_by: "consumer drains a stale head-of-ring cell",
    },
    Mutation {
        site: Site::MwClaimCas,
        scenario: "markword-claim-publish",
        what: "claim CAS success AcqRel -> Relaxed",
        killed_by: "probe sees the claim, prep read races (stale payload)",
    },
    Mutation {
        site: Site::MwParentPublish,
        scenario: "markword-parent-race",
        what: "parent word published before the claim CAS",
        killed_by: "loser clobbers winner's parent; drain misroutes the return",
    },
    Mutation {
        site: Site::MwSettleProbe,
        scenario: "markword-settle-at-spawn",
        what: "settle probe of the child's word Acquire -> Relaxed",
        killed_by: "settle sees the rival's claim, payload read races (stale payload)",
    },
    Mutation {
        site: Site::MwCompleteDrain,
        scenario: "markword-return-in-place",
        what: "complete_children's count drain AcqRel -> Release",
        killed_by: "the walk reaches rootpar, the sibling's payload read races",
    },
    Mutation {
        site: Site::MwClaimLoss,
        scenario: "markword-leaf-in-place",
        what: "try_claim's pre-CAS load and CAS failure Acquire -> Relaxed",
        killed_by: "the losing leaf claim settles c, winner's payload read races",
    },
    Mutation {
        site: Site::QuiesceRelease,
        scenario: "quiesce-publish",
        what: "quiescence decrement AcqRel -> Relaxed",
        killed_by: "zero-observer misses a released worker's effect (race)",
    },
    Mutation {
        site: Site::QuiesceCreditTopUp,
        scenario: "quiesce-credit",
        what: "credit top-up moved after the publish it covers",
        killed_by: "consumer's release latches done with the publisher mid-chain",
    },
];
