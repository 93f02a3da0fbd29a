//! Exporters for `ktrace` recordings: Chrome trace-event JSON (loadable
//! in `chrome://tracing` / Perfetto) and a plain-text summary table.

use fluke_arch::cycles_to_us;
use fluke_core::{TraceEvent, TraceRecord, Tracer};
use fluke_json::Json;

use crate::report::TextTable;

/// The (name, args) pair an event exports as.
fn event_json(ev: &TraceEvent) -> Json {
    let mut args = Json::obj();
    if let Some(t) = ev.thread() {
        args.set("thread", Json::from_u32(t.0));
    }
    match *ev {
        TraceEvent::SyscallEnter { sys, .. } | TraceEvent::SyscallRestart { sys, .. } => {
            args.set("sys", Json::from_u32(sys));
        }
        TraceEvent::SyscallExit { code, .. } => {
            args.set("code", Json::from_u32(code));
        }
        TraceEvent::IpcSend { bytes, .. } | TraceEvent::IpcTransfer { bytes, .. } => {
            args.set("bytes", Json::from_u32(bytes));
        }
        TraceEvent::IpcReceive { window, .. } => {
            args.set("window", Json::from_u32(window));
        }
        TraceEvent::SoftFault { addr, remedy, .. } => {
            args.set("addr", Json::from_u32(addr));
            args.set("remedy_cycles", Json::from_u64(remedy));
        }
        TraceEvent::HardFault { offset, .. } => {
            args.set("offset", Json::from_u32(offset));
        }
        TraceEvent::HardFaultDone { remedy, .. } => {
            args.set("remedy_cycles", Json::from_u64(remedy));
        }
        TraceEvent::Rollback { cycles, .. } => {
            args.set("cycles", Json::from_u64(cycles));
        }
        TraceEvent::CtxSwitch { space_switch, .. } => {
            args.set("space_switch", Json::Bool(space_switch));
        }
        TraceEvent::Mark { value, .. } => {
            args.set("value", Json::from_u32(value));
        }
        TraceEvent::FaultInjected { kind, site, .. } => {
            args.set("kind", Json::from_u32(kind));
            args.set("site", Json::from_u64(site));
        }
        TraceEvent::IpcMessage { .. }
        | TraceEvent::UserPreempt { .. }
        | TraceEvent::KernelPreempt { .. }
        | TraceEvent::Block { .. }
        | TraceEvent::Wake { .. }
        | TraceEvent::Halt { .. } => {}
    }
    args
}

/// Render records as Chrome trace-event JSON: instant events with
/// microsecond timestamps, one "thread" lane per simulated CPU. The
/// output is deterministic (sorted object keys, merged record order).
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let mut events = Vec::with_capacity(records.len());
    for rec in records {
        let mut e = Json::obj();
        e.set("name", Json::Str(rec.event.name().to_string()));
        e.set("ph", Json::Str("i".to_string()));
        e.set("s", Json::Str("t".to_string()));
        e.set("ts", Json::Num(cycles_to_us(rec.at)));
        e.set("pid", Json::from_u32(0));
        e.set("tid", Json::from_u32(rec.cpu));
        e.set("args", event_json(&rec.event));
        events.push(e);
    }
    let mut root = Json::obj();
    root.set("traceEvents", Json::Arr(events));
    root.set("displayTimeUnit", Json::Str("ms".to_string()));
    root.to_string()
}

/// Restrict records to a simulated-cycle window: `since ≤ at ≤ until`
/// (both inclusive; `None` leaves that edge open). Exporters and the
/// replay debugger use this to zoom a recording in on the cycles under
/// investigation.
pub fn cycle_window(
    records: &[TraceRecord],
    since: Option<u64>,
    until: Option<u64>,
) -> Vec<TraceRecord> {
    records
        .iter()
        .filter(|r| since.is_none_or(|s| r.at >= s) && until.is_none_or(|u| r.at <= u))
        .cloned()
        .collect()
}

/// A plain-text per-event-type summary of what a tracer holds within a
/// [`cycle_window`] (`None, None` for everything). Drop accounting still
/// covers the whole recording (drops have no timestamp).
pub fn text_summary_window(tracer: &Tracer, since: Option<u64>, until: Option<u64>) -> String {
    let w = cycle_window(&tracer.merged(), since, until);
    summarize(&w, tracer.dropped_total(), since, until)
}

fn summarize(
    merged: &[TraceRecord],
    dropped: u64,
    since: Option<u64>,
    until: Option<u64>,
) -> String {
    // Count by event name, in first-seen deterministic order.
    let mut order: Vec<&'static str> = Vec::new();
    let mut counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for rec in merged {
        let name = rec.event.name();
        if !counts.contains_key(name) {
            order.push(name);
        }
        *counts.entry(name).or_insert(0) += 1;
    }
    order.sort();
    let mut t = TextTable::new(&["event", "count"]);
    for name in order {
        t.row(&[name.to_string(), counts[name].to_string()]);
    }
    let span = match (merged.first(), merged.last()) {
        (Some(a), Some(b)) => cycles_to_us(b.at.saturating_sub(a.at)),
        _ => 0.0,
    };
    let window = match (since, until) {
        (None, None) => String::new(),
        (s, u) => format!(
            " (window {}..{})",
            s.map_or("start".to_string(), |c| c.to_string()),
            u.map_or("end".to_string(), |c| c.to_string())
        ),
    };
    format!(
        "ktrace summary{window}: {} events held, {dropped} dropped, {:.1}µs span\n\n{}",
        merged.len(),
        span,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluke_api::Sys;
    use fluke_arch::Assembler;
    use fluke_core::{Config, Kernel, UserVisible};
    use fluke_user::proc::{run_to_halt, ChildProc};
    use fluke_user::FlukeAsm;

    fn traced_run() -> Kernel {
        let mut k = Kernel::new(Config::process_np().with_tracing(1 << 16));
        let mut p = ChildProc::new(&mut k);
        let _ = p.alloc_obj();
        let mut a = Assembler::new("t");
        a.sys(Sys::SysNull);
        a.sys_hv(Sys::SysTrace, 0, 42);
        a.halt();
        let t = p.start(&mut k, a.finish(), 8);
        assert!(run_to_halt(&mut k, &[t], 1_000_000_000));
        k
    }

    #[test]
    fn chrome_trace_is_valid_deterministic_json() {
        let k = traced_run();
        let s1 = chrome_trace(&k.trace.merged());
        let s2 = chrome_trace(&traced_run().trace.merged());
        assert_eq!(s1, s2, "same run must export identically");
        let parsed = fluke_json::Json::parse(&s1).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(|e| match e {
            Json::Arr(v) => Some(v),
            _ => None,
        });
        let events = events.expect("traceEvents array");
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .any(|e| { e.get("name").and_then(|n| n.as_str()) == Some("syscall_exit") }));
    }

    #[test]
    fn text_summary_counts_events() {
        let k = traced_run();
        let s = text_summary_window(&k.trace, None, None);
        assert!(s.contains("syscall_enter"));
        assert!(s.contains("halt"));
        assert!(s.contains("0 dropped"));
    }

    #[test]
    fn marks_appear_in_projection() {
        let k = traced_run();
        let uv = k.trace.user_visible();
        assert!(uv.values().any(|evs| evs.contains(&UserVisible::Mark(42))));
    }
}
