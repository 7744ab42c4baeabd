//! A registry's sources: facts a long-lived owner keeps in its own plain
//! struct, read — not mirrored — by the registry. One process, so the
//! kill switch these tests flip is theirs alone.

use std::cell::Cell;
use std::rc::Rc;

use sdr_trace::{set_enabled, Registry};

fn read(c: &Cell<u64>) -> [(&'static str, u64); 2] {
    [("s.count", c.get()), ("s.twice", 2 * c.get())]
}

/// Two owners of one name sum, the kill switch does not gate them, a
/// dropped owner's facts leave the sums, and its names stay, at zero.
#[test]
fn sources_sum_live_owners_whatever_the_kill_switch() {
    let r = Registry::new();
    let (a, b) = (Rc::new(Cell::new(3)), Rc::new(Cell::new(4)));
    r.source(&a, read);
    r.source(&b, read);
    set_enabled(true);
    r.counter("plain").inc();
    set_enabled(false);
    a.set(5);
    assert_eq!(r.counter_value("s.count"), 9);
    assert_eq!(r.counter_value("s.twice"), 18);
    set_enabled(true);
    drop(b);
    let counters = r.snapshot().counters;
    let want = [("plain", 1), ("s.count", 5), ("s.twice", 10)];
    assert_eq!(counters, want.map(|(n, v)| (n.to_string(), v)));
    drop(a);
    assert_eq!(r.counter_value("s.count"), 0);
    assert_eq!(r.snapshot().counters.len(), 3, "names outlive owners");
}

#[test]
#[should_panic(expected = "not a counter")]
fn a_sourced_name_is_not_a_counter() {
    let r = Registry::new();
    r.source(&Rc::new(Cell::new(0)), read);
    let _ = r.counter("s.count");
}

#[test]
#[should_panic(expected = "not a source's fact")]
fn a_counter_is_not_a_sourced_name() {
    let r = Registry::new();
    let _ = r.counter("s.twice");
    r.source(&Rc::new(Cell::new(0)), read);
}
