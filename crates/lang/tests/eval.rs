//! End-to-end evaluation tests: source text → parse → lift → compile →
//! distributed reduction → value.

use dgr_graph::{Priority, Value};
use dgr_lang::{eval_source, eval_with_prelude};
use dgr_reduction::{RunOutcome, SystemConfig};
use dgr_sim::{Lane, SchedPolicy};

fn eval(src: &str) -> RunOutcome {
    eval_source(src, SystemConfig::default()).unwrap_or_else(|e| panic!("{src}: {e}"))
}

fn eval_p(src: &str) -> RunOutcome {
    eval_with_prelude(src, SystemConfig::default()).unwrap_or_else(|e| panic!("{src}: {e}"))
}

fn int(n: i64) -> RunOutcome {
    RunOutcome::Value(Value::Int(n))
}

fn boolean(b: bool) -> RunOutcome {
    RunOutcome::Value(Value::Bool(b))
}

#[test]
fn arithmetic() {
    assert_eq!(eval("1 + 2 * 3"), int(7));
    assert_eq!(eval("(1 + 2) * 3"), int(9));
    assert_eq!(eval("10 / 3"), int(3));
    assert_eq!(eval("10 % 3"), int(1));
    assert_eq!(eval("neg 5 + 6"), int(1));
}

#[test]
fn comparisons_and_logic() {
    assert_eq!(eval("1 < 2 && 2 <= 2"), boolean(true));
    assert_eq!(eval("1 == 2 || 3 > 4"), boolean(false));
    assert_eq!(eval("not (1 != 1)"), boolean(true));
    assert_eq!(eval("true && false"), boolean(false));
}

#[test]
fn division_by_zero_is_bottom() {
    assert_eq!(eval("1 / 0"), RunOutcome::Value(Value::Bottom));
    assert_eq!(eval("5 % 0"), RunOutcome::Value(Value::Bottom));
}

#[test]
fn conditionals() {
    assert_eq!(eval("if 1 < 2 then 10 else 20"), int(10));
    assert_eq!(eval("if false then 1 / 0 else 42"), int(42));
}

#[test]
fn lambdas_and_application() {
    assert_eq!(eval("(\\x -> x + 1) 41"), int(42));
    assert_eq!(eval("(\\x y -> x * y) 6 7"), int(42));
    assert_eq!(eval("(\\f x -> f (f x)) (\\n -> n + 1) 40"), int(42));
}

#[test]
fn let_bindings_and_sharing() {
    assert_eq!(eval("let x = 21 in x + x"), int(42));
    assert_eq!(eval("let x = 2; y = 3 in x * y"), int(6));
    assert_eq!(eval("let f = \\x -> x * 2 in f (f 10)"), int(40));
}

#[test]
fn closures_capture_environment() {
    assert_eq!(eval("let a = 40 in (\\x -> x + a) 2"), int(42));
    assert_eq!(
        eval("let mk = \\a -> \\b -> a * 10 + b in (mk 4) 2"),
        int(42)
    );
}

#[test]
fn recursion() {
    assert_eq!(
        eval("let rec fact = \\n -> if n == 0 then 1 else n * fact (n - 1) in fact 6"),
        int(720)
    );
    assert_eq!(
        eval("let rec fib = \\n -> if n < 2 then n else fib (n-1) + fib (n-2) in fib 15"),
        int(610)
    );
}

#[test]
fn mutual_recursion() {
    assert_eq!(
        eval(
            "let rec even = \\n -> if n == 0 then true else odd (n - 1);
                     odd  = \\n -> if n == 0 then false else even (n - 1)
             in even 10"
        ),
        boolean(true)
    );
}

#[test]
fn lists_and_builtins() {
    assert_eq!(eval("head [1, 2, 3]"), int(1));
    assert_eq!(eval("head (tail [1, 2, 3])"), int(2));
    assert_eq!(eval("isnil []"), boolean(true));
    assert_eq!(eval("isnil [0]"), boolean(false));
    assert_eq!(eval("head (cons 9 nil)"), int(9));
}

#[test]
fn prelude_list_functions() {
    assert_eq!(eval_p("sum (range 1 100)"), int(5050));
    assert_eq!(eval_p("length (range 1 10)"), int(10));
    assert_eq!(eval_p("sum (map (\\x -> x * 2) (range 1 10))"), int(110));
    assert_eq!(eval_p("sum (filter even (range 1 10))"), int(30));
    assert_eq!(eval_p("product (range 1 5)"), int(120));
    assert_eq!(eval_p("nth 3 (range 10 20)"), int(13));
    assert_eq!(eval_p("sum (append [1,2] [3,4])"), int(10));
    assert_eq!(eval_p("sum (reverse (range 1 4))"), int(10));
    assert_eq!(eval_p("foldl max2 0 [3, 9, 2]"), int(9));
    assert_eq!(eval_p("sum (replicate 5 8)"), int(40));
    assert_eq!(eval_p("sum (take 3 (drop 2 (range 1 100)))"), int(12));
}

#[test]
fn laziness_infinite_structures() {
    assert_eq!(eval_p("head (nats 7)"), int(7));
    assert_eq!(eval_p("sum (take 5 (nats 1))"), int(15));
    assert_eq!(
        eval("let rec ones = cons 1 ones in head (tail (tail ones))"),
        int(1)
    );
}

#[test]
fn cyclic_data_through_letrec() {
    assert_eq!(
        eval("let rec xs = cons 1 ys; ys = cons 2 xs in head (tail (tail xs))"),
        int(1)
    );
}

#[test]
fn higher_order_builtins() {
    // cons used as a function value.
    assert_eq!(
        eval_p("head (foldl (\\acc x -> cons x acc) nil [5, 6])"),
        int(6)
    );
    assert_eq!(
        eval_p("(compose (\\x -> x + 1) (\\x -> x * 2)) 20"),
        int(41)
    );
    assert_eq!(eval_p("twice (\\x -> x * 3) 2"), int(18));
}

#[test]
fn gcd_and_fact() {
    assert_eq!(eval_p("gcd 252 105"), int(21));
    assert_eq!(eval_p("fact 10"), int(3628800));
    assert_eq!(eval_p("nfib 10"), int(177));
}

#[test]
fn results_stable_across_schedulers() {
    let src = "let rec fib = \\n -> if n < 2 then n else fib (n-1) + fib (n-2) in fib 12";
    for policy in [
        SchedPolicy::Fifo,
        SchedPolicy::Lifo,
        SchedPolicy::RoundRobin,
        SchedPolicy::PriorityFirst,
    ] {
        let cfg = SystemConfig {
            policy,
            ..Default::default()
        };
        assert_eq!(eval_source(src, cfg).unwrap(), int(144));
    }
    for seed in 0..10 {
        let cfg = SystemConfig {
            policy: SchedPolicy::Random { marking_bias: 0.5 },
            seed,
            num_pes: 7,
            ..Default::default()
        };
        assert_eq!(eval_source(src, cfg).unwrap(), int(144), "seed {seed}");
    }
}

/// Reduction under the round-synchronous policy: the value does not
/// depend on the PE count, one PE runs one task per round, and a second
/// PE shortens the run. With speculation on, vital and eager tasks share
/// each PE's one task per round.
#[test]
fn rounds_reduce_to_the_value_and_count_parallel_time() {
    let speculative = "sum (map (\\x -> if x < 3 then x * 2 else x + 1) (range 1 20))";
    for (src, speculation, want) in [("nfib 12", false, 465), (speculative, true, 231)] {
        let mut rounds = Vec::new();
        for num_pes in [1u16, 2, 4] {
            let cfg = SystemConfig {
                policy: SchedPolicy::Rounds,
                num_pes,
                speculation,
                ..Default::default()
            };
            let mut sys = dgr_lang::build_with_prelude(src, cfg).unwrap();
            assert_eq!(sys.run(), int(want), "{src} on {num_pes} PEs");
            let stats = sys.sim().stats();
            if num_pes == 1 {
                assert_eq!(stats.rounds(), stats.delivered_total(), "{src}");
            }
            let eager = stats.delivered(Lane::Reduction(Priority::Eager));
            assert_eq!(eager > 0, speculation, "{src}: eager tasks ran");
            rounds.push(stats.rounds());
        }
        assert!(
            rounds[1] < rounds[0],
            "{src}: two PEs take fewer rounds: {rounds:?}"
        );
    }
}

#[test]
fn speculation_requires_gc_and_preserves_results() {
    // Speculative evaluation of a recursive program breeds an unbounded
    // *irrelevant* workload (each `fib k` with `k < 2` speculates
    // `fib (k-1) + fib (k-2)` before its predicate cancels them) — the
    // exact Section 3.2 scenario. Without the GC's expunging and
    // re-prioritization the vital path starves; with it, the computation
    // converges to the same value on any schedule.
    use dgr_gc::{GcConfig, GcDriver};
    use dgr_lang::build_with_prelude;

    for seed in 0..5 {
        let cfg = SystemConfig {
            speculation: true,
            policy: SchedPolicy::Random { marking_bias: 0.5 },
            seed,
            ..Default::default()
        };
        let sys = build_with_prelude("sum (map fib (range 1 8))", cfg).unwrap();
        let mut gc = GcDriver::new(
            sys,
            GcConfig {
                period: 400,
                ..Default::default()
            },
        );
        assert_eq!(gc.run(), int(54), "seed {seed}");
        assert!(
            gc.stats().expunged_total > 0,
            "seed {seed}: irrelevant speculative tasks were expunged"
        );
    }
}

#[test]
fn shadowing() {
    assert_eq!(eval("let x = 1 in let x = 2 in x"), int(2));
    assert_eq!(eval("(\\x -> (\\x -> x) 9) 1"), int(9));
    // A binder may shadow a builtin.
    assert_eq!(eval("(\\head -> head + 1) 41"), int(42));
}

#[test]
fn ackermann_small() {
    assert_eq!(
        eval(
            "let rec ack = \\m n ->
                 if m == 0 then n + 1
                 else if n == 0 then ack (m - 1) 1
                 else ack (m - 1) (ack m (n - 1))
             in ack 2 3"
        ),
        int(9)
    );
}

#[test]
fn deep_non_tail_recursion() {
    assert_eq!(
        eval("let rec sumto = \\n -> if n == 0 then 0 else n + sumto (n - 1) in sumto 500"),
        int(125250)
    );
}

#[test]
fn comments_in_source() {
    assert_eq!(eval("# header\n1 + 1 # trailing"), int(2));
}
