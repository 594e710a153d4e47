//! The recording switch every facade type is generic over (see the crate
//! docs, "The `telemetry` feature").
//!
//! A facade method hands its body to [`Switch::with`] as a closure, with
//! the value it returns when nothing is kept, rather than matching on its
//! state itself. The method is then one call and [`Off`]'s `with` calls
//! nothing, so the compiler inlines both before it optimizes the caller,
//! and an instrumentation call leaves the caller's code as an empty
//! `#[inline(always)]` body would (a `U::default()` in `Off::with` would
//! already stop that).

use std::fmt::Debug;

/// Whether a facade type records: [`On`] or [`Off`].
pub trait Switch: Debug + 'static {
    /// `true` for [`On`]; what every facade type's `enabled()` returns.
    const ON: bool;

    /// The state a facade type keeps: `T` under [`On`], `()` under [`Off`].
    type Keep<T: Debug>: Debug;

    /// Keeps `make()`; under [`Off`] `make` is never called.
    fn keep<T: Debug>(make: impl FnOnce() -> T) -> Self::Keep<T>;

    /// Keeps what `f` derives from kept state (a borrow into it, say).
    fn map<'a, T: Debug + 'a, U: Debug>(
        k: &'a Self::Keep<T>,
        f: impl FnOnce(&'a T) -> U,
    ) -> Self::Keep<U>;

    /// `f` of the kept state; under [`Off`] `empty`, and `f` is never
    /// called.
    fn with<T: Debug, U>(k: &Self::Keep<T>, empty: U, f: impl FnOnce(&T) -> U) -> U;

    /// [`Switch::with`] over a mutable borrow.
    fn with_mut<T: Debug, U>(k: &mut Self::Keep<T>, empty: U, f: impl FnOnce(&mut T) -> U) -> U;
}

/// The switch that records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {}

/// The switch that records nothing and keeps no state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Off {}

impl Switch for On {
    const ON: bool = true;
    type Keep<T: Debug> = T;

    #[inline(always)]
    fn keep<T: Debug>(make: impl FnOnce() -> T) -> T {
        make()
    }

    #[inline(always)]
    fn map<'a, T: Debug + 'a, U: Debug>(k: &'a T, f: impl FnOnce(&'a T) -> U) -> U {
        f(k)
    }

    #[inline(always)]
    fn with<T: Debug, U>(k: &T, _empty: U, f: impl FnOnce(&T) -> U) -> U {
        f(k)
    }

    #[inline(always)]
    fn with_mut<T: Debug, U>(k: &mut T, _empty: U, f: impl FnOnce(&mut T) -> U) -> U {
        f(k)
    }
}

impl Switch for Off {
    const ON: bool = false;
    type Keep<T: Debug> = ();

    #[inline(always)]
    fn keep<T: Debug>(_make: impl FnOnce() -> T) {}

    #[inline(always)]
    fn map<'a, T: Debug + 'a, U: Debug>(_k: &'a (), _f: impl FnOnce(&'a T) -> U) {}

    #[inline(always)]
    fn with<T: Debug, U>(_k: &(), empty: U, _f: impl FnOnce(&T) -> U) -> U {
        empty
    }

    #[inline(always)]
    fn with_mut<T: Debug, U>(_k: &mut (), empty: U, _f: impl FnOnce(&mut T) -> U) -> U {
        empty
    }
}
