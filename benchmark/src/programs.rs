//! The source programs the `reduce_*` workloads evaluate, each with a
//! reference value computed natively here — never by the machine under
//! test.

/// A source program and the integer it must evaluate to.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Name printed in failures and spans.
    pub name: &'static str,
    /// Source text, to be put in scope of the prelude.
    pub source: String,
    /// The value computed natively.
    pub expected: i64,
    /// Whether conditionals evaluate both branches speculatively.
    pub speculation: bool,
}

fn nfib(n: i64) -> i64 {
    if n < 2 {
        1
    } else {
        nfib(n - 1) + nfib(n - 2) + 1
    }
}

/// splitmix64 finalizer: spreads consecutive seeds over the offsets.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn nfib_program(name: &'static str, n: i64, speculation: bool) -> Program {
    Program {
        name,
        source: format!("nfib {n}"),
        expected: nfib(n),
        speculation,
    }
}

/// Quicksort over `n` numbers drawn by a small LCG written in the
/// language, checked by the (permutation-invariant) sum, which the same
/// LCG gives natively.
///
/// The workload seed shifts every number by one offset. That changes the
/// values and the sum but no comparison, so the sort does the same work —
/// and every count repeats exactly — whatever the seed. Seeding the LCG's
/// start instead moved the pivots, and with them `reduce_gc`'s marking
/// events by up to 7 %: more than any bound an exact count deserves.
fn qsort(n: i64, seed: u64) -> Program {
    let offset = (mix(seed) % 1_000_000) as i64;
    let source = format!(
        "let rec lcg = \\x k -> if k == 0 then nil
                                else cons ((x % 1000) + {offset})
                                          (lcg ((x * 75 + 74) % 65537) (k - 1));
                 qsort = \\xs -> if isnil xs then nil
                                 else append
                                   (qsort (filter (\\y -> y < head xs) (tail xs)))
                                   (cons (head xs)
                                     (qsort (filter (\\y -> y >= head xs) (tail xs))))
         in sum (qsort (lcg 1 {n}))"
    );
    let (mut x, mut sum) = (1, 0);
    for _ in 0..n {
        sum += x % 1000 + offset;
        x = (x * 75 + 74) % 65_537;
    }
    Program {
        name: "qsort",
        source,
        expected: sum,
        speculation: false,
    }
}

/// Sum of a prefix of a cyclic list: the self-referencing structure that
/// reference counting cannot reclaim.
fn cyclic_sum(n: i64) -> Program {
    Program {
        name: "cyclic_sum",
        source: format!("let rec ones = cons 1 ones in sum (take {n} ones)"),
        expected: n,
        speculation: false,
    }
}

/// Number of primes below `n` by trial division.
fn primes(n: i64) -> Program {
    Program {
        name: "primes",
        source: format!(
            "length (filter (\\k -> isnil (filter (\\d -> k % d == 0) (range 2 (k - 1))))
                            (range 2 {}))",
            n - 1
        ),
        expected: (2..n).filter(|&k| (2..k).all(|d| k % d != 0)).count() as i64,
        speculation: false,
    }
}

/// The programs of one iteration: the four both `reduce_*` workloads
/// share, then `spec_nfib`, which only `reduce_gc` evaluates (without a
/// collector nothing ever expunges its irrelevant tasks).
pub fn programs(seed: u64, quick: bool) -> Vec<Program> {
    let (nfib_n, qsort_n, cyclic_n, primes_n, spec_n) = if quick {
        (10, 30, 100, 30, 9)
    } else {
        (19, 250, 3000, 150, 17)
    };
    vec![
        nfib_program("nfib", nfib_n, false),
        qsort(qsort_n, seed),
        cyclic_sum(cyclic_n),
        primes(primes_n),
        nfib_program("spec_nfib", spec_n, true),
    ]
}

/// How many of [`programs`] both `reduce_*` workloads evaluate.
pub const SHARED_PROGRAMS: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references() {
        assert_eq!(nfib(5), 15);
        assert_eq!(primes(20).expected, 8);
        assert_eq!(cyclic_sum(7).expected, 7);
    }

    #[test]
    fn qsort_input_follows_the_seed() {
        assert_eq!(qsort(30, 5), qsort(30, 5));
        assert_ne!(qsort(30, 5).source, qsort(30, 6).source);
    }
}
