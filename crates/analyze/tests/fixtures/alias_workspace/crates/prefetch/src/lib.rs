//! Fixture crate: a hash alias declared in one file and iterated in
//! another.

mod bo;
mod fasthash;
