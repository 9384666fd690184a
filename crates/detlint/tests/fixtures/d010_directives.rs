//! D010 fixture: a malformed directive and an unused one.

// detlint: allow(D004)
fn missing_reason() {}

// detlint: allow(D004) -- suppresses nothing on the next line
fn unused_allow() {}
