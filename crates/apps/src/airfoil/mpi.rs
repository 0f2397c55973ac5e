//! The Airfoil rank of the message-passing backend under its own names.
//! A rank is the app's own state on its mesh piece ([`dist::Rank`]), so
//! these are aliases of the generic driver's.

use crate::dist;

use super::Airfoil;

pub use crate::dist::rank_state_from_global;

/// A rank-local Airfoil state: [`Airfoil`] on the rank's mesh piece,
/// reached through `Deref` (`state.q`, …).
pub type RankState<R> = dist::Rank<Airfoil<R>>;
