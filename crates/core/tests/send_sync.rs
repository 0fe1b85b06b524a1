//! Compile-time thread-safety contract of the public stack.
//!
//! A session is the unit of work handed to an OS thread (`fig4 --threads`
//! spawns one per worker), and the shared handles behind it — the engine
//! database, the drivers, the facade — are what every thread clones. These
//! assertions fail to *compile* if an `Rc`, `RefCell`, or raw pointer ever
//! leaks into those types, which is strictly stronger than any runtime
//! test: the regression is caught before a single test runs.

use resildb_core::ResilientDb;
use resildb_engine::Database;
use resildb_wire::{Connection, Driver, DualProxyDriver, NativeDriver};

fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn shared_handles_are_send_and_sync() {
    // Cloned into every worker thread.
    assert_send_sync::<Database>();
    assert_send_sync::<ResilientDb>();
    // Drivers are shared factories: one per benchmark, connect() per thread.
    assert_send_sync::<NativeDriver>();
    assert_send_sync::<DualProxyDriver>();
}

#[test]
fn sessions_are_send() {
    // A session moves to the thread that owns it (Send), but is not shared
    // between threads (no Sync requirement — it holds per-connection
    // transaction state).
    assert_send::<resildb_engine::Session>();
    assert_send::<Box<dyn Connection>>();
}

#[test]
fn trait_objects_stay_thread_safe() {
    // `dyn Driver` is used behind `Arc` by the bench harness.
    assert_send_sync::<Box<dyn Driver>>();
}
