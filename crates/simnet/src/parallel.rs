//! Parallel lookahead execution mode for the virtual-time engine.
//!
//! The engine's determinism story (see `engine.rs` and DESIGN.md) rests
//! on totally ordering *simulation-visible* operations. The compute
//! segments between those operations have no simulation-visible effect —
//! they only advance a process's private clock and run private Rust
//! code — so they may overlap in wall-clock time without changing any
//! virtual-time outcome. This module holds the public knobs that select
//! between the two schedules:
//!
//! * [`Execution::Sequential`] — classic baton passing, one process at a
//!   time (the default, and the reference schedule).
//! * [`Execution::Parallel`] — the commit token is released right after
//!   each visible operation's shared-state mutation; the process then
//!   runs its next compute segment concurrently with others. A
//!   conservative frontier rule in the scheduler guarantees the grant
//!   sequence — and therefore every virtual time, result and statistic —
//!   is bit-identical to the sequential schedule.
//!
//! The mode can be set per run ([`crate::Sim::set_execution`]),
//! process-wide ([`set_default_execution`]), or from the environment via
//! `HPCBD_EXECUTION=sequential|parallel[:N]`.

use std::sync::atomic::{AtomicU64, Ordering};

/// How the engine schedules the real Rust compute between visible
/// operations. Both modes produce bit-identical virtual-time results;
/// parallel mode trades scheduler overhead for wall-clock overlap of
/// compute segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Execution {
    /// Classic baton passing: one process at a time (default).
    Sequential,
    /// Release the commit token after each visible operation so up to
    /// `threads` processes run their compute segments concurrently
    /// (in addition to the current token holder). `threads = 0` degrades
    /// to sequential behaviour.
    Parallel {
        /// Concurrency cap for released compute segments.
        threads: usize,
    },
}

/// Encoded process-wide default execution mode; `u64::MAX` means "not
/// yet initialized, consult the environment".
static DEFAULT_EXEC: AtomicU64 = AtomicU64::new(u64::MAX);

/// What [`Execution::from_env`] has to say on stderr about the value it
/// read.
#[derive(Debug, PartialEq, Eq)]
enum EnvNote {
    /// Malformed value: sequential runs instead.
    Rejected(String),
    /// A name of the removed speculative mode: parallel runs instead.
    Removed(String),
}

impl Execution {
    fn encode(self) -> u64 {
        match self {
            Execution::Sequential => 0,
            // Clamped below the "uninitialized" sentinel.
            Execution::Parallel { threads } => (threads.max(1) as u64).min(u64::MAX - 1),
        }
    }

    fn decode(v: u64) -> Execution {
        if v == 0 {
            Execution::Sequential
        } else {
            Execution::Parallel {
                threads: v as usize,
            }
        }
    }

    fn auto_threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Parallel mode sized to the host's available cores.
    pub fn parallel_auto() -> Execution {
        Execution::Parallel {
            threads: Execution::auto_threads(),
        }
    }

    /// Parse the `HPCBD_EXECUTION` environment variable: `sequential`
    /// (default), `parallel` (auto-sized), or `parallel:N`.
    ///
    /// A malformed value falls back to [`Execution::Sequential`], but not
    /// silently: a one-time stderr warning names the rejected value, so a
    /// typo like `paralell:4` cannot quietly benchmark the wrong mode.
    pub fn from_env() -> Execution {
        let (exec, note) = Execution::from_env_value(std::env::var("HPCBD_EXECUTION").ok());
        if let Some(note) = note {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| match note {
                EnvNote::Rejected(bad) => eprintln!(
                    "warning: unrecognized HPCBD_EXECUTION value {bad:?} \
                     (expected `sequential` or `parallel[:N]`); \
                     falling back to sequential execution"
                ),
                EnvNote::Removed(old) => eprintln!(
                    "note: HPCBD_EXECUTION={old:?} names the removed speculative \
                     mode; running {exec:?} instead"
                ),
            });
        }
        exec
    }

    /// Resolve an `HPCBD_EXECUTION` value (or its absence) to a mode plus
    /// what to tell the user about it. Split from [`Execution::from_env`]
    /// so the fallback is testable without touching the process
    /// environment or capturing stderr.
    fn from_env_value(v: Option<String>) -> (Execution, Option<EnvNote>) {
        match v {
            Some(v) => match Execution::parse(&v) {
                Some(e) if v.trim_start().starts_with("spec") => (e, Some(EnvNote::Removed(v))),
                Some(e) => (e, None),
                None => (Execution::Sequential, Some(EnvNote::Rejected(v))),
            },
            None => (Execution::Sequential, None),
        }
    }

    /// Parse `sequential` / `seq`, `parallel` / `par`, or `parallel:N` /
    /// `par:N` with `N >= 1` (a zero-thread pool is meaningless and
    /// rejected, as is any non-numeric suffix; whitespace around the mode
    /// or the thread count is tolerated).
    ///
    /// Shim: `speculative[:N]` / `spec[:N]`, the names of the removed
    /// Time Warp mode, parse as `parallel[:N]`, because `benchmark/` still
    /// launches a cell under that name. Goes, with `EnvNote::Removed`,
    /// once the benchmark drops `wall_spec_s` (ROADMAP item 2).
    pub fn parse(s: &str) -> Option<Execution> {
        let s = s.trim();
        match s {
            "sequential" | "seq" => Some(Execution::Sequential),
            "parallel" | "par" | "speculative" | "spec" => Some(Execution::parallel_auto()),
            _ => {
                let rest = ["parallel:", "par:", "speculative:", "spec:"]
                    .iter()
                    .find_map(|prefix| s.strip_prefix(prefix))?;
                let threads = rest.trim().parse::<usize>().ok()?;
                if threads == 0 {
                    return None;
                }
                Some(Execution::Parallel { threads })
            }
        }
    }
}

/// Set the process-wide default execution mode used by
/// [`crate::Sim::new`] (overridable per simulation with
/// [`crate::Sim::set_execution`]).
pub fn set_default_execution(exec: Execution) {
    DEFAULT_EXEC.store(exec.encode(), Ordering::SeqCst);
}

/// The process-wide default execution mode: whatever
/// [`set_default_execution`] last stored, else `HPCBD_EXECUTION`, else
/// sequential.
pub fn default_execution() -> Execution {
    let v = DEFAULT_EXEC.load(Ordering::SeqCst);
    if v != u64::MAX {
        return Execution::decode(v);
    }
    let e = Execution::from_env();
    // Racing initializers agree (the env doesn't change underneath us).
    DEFAULT_EXEC.store(e.encode(), Ordering::SeqCst);
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_modes() {
        assert_eq!(Execution::parse("sequential"), Some(Execution::Sequential));
        assert_eq!(Execution::parse("seq"), Some(Execution::Sequential));
        assert_eq!(
            Execution::parse("parallel:4"),
            Some(Execution::Parallel { threads: 4 })
        );
        assert_eq!(Execution::parse("par"), Some(Execution::parallel_auto()));
        // The removed mode's names run the surviving threaded engine.
        assert_eq!(
            Execution::parse("speculative:4"),
            Some(Execution::Parallel { threads: 4 })
        );
        assert_eq!(
            Execution::parse("spec:2"),
            Some(Execution::Parallel { threads: 2 })
        );
        for auto in ["parallel", "speculative", "\tspec "] {
            assert_eq!(Execution::parse(auto), Some(Execution::parallel_auto()));
        }
        assert_eq!(Execution::parse("bogus"), None);
    }

    #[test]
    fn parse_rejects_zero_threads() {
        assert_eq!(Execution::parse("parallel:0"), None);
        assert_eq!(Execution::parse("par:0"), None);
        assert_eq!(Execution::parse(" parallel:0 "), None);
        assert_eq!(Execution::parse("speculative:0"), None);
        assert_eq!(Execution::parse("spec:0"), None);
    }

    #[test]
    fn parse_tolerates_whitespace() {
        assert_eq!(
            Execution::parse("  parallel:8\n"),
            Some(Execution::Parallel { threads: 8 })
        );
        assert_eq!(
            Execution::parse("parallel: 8"),
            Some(Execution::Parallel { threads: 8 })
        );
        assert_eq!(Execution::parse("\tseq "), Some(Execution::Sequential));
    }

    #[test]
    fn parse_bounds_thread_counts() {
        assert_eq!(
            Execution::parse(&format!("parallel:{}", usize::MAX)),
            Some(Execution::Parallel {
                threads: usize::MAX
            })
        );
        // One past usize::MAX overflows the parse and is rejected, not
        // wrapped or clamped to something surprising.
        assert_eq!(Execution::parse("parallel:18446744073709551616"), None);
        assert_eq!(Execution::parse("parallel:-1"), None);
        assert_eq!(Execution::parse("parallel:"), None);
        assert_eq!(Execution::parse("parallel:4x"), None);
        assert_eq!(Execution::parse("speculative:4x"), None);
        assert_eq!(Execution::parse("spec:2 4"), None);
    }

    #[test]
    fn env_fallback_reports_the_malformed_value() {
        let resolve = |v: &str| Execution::from_env_value(Some(v.into()));
        let rejected = |v: &str| (Execution::Sequential, Some(EnvNote::Rejected(v.into())));
        // Well-formed values pass through without a warning.
        assert_eq!(
            resolve("parallel:4"),
            (Execution::Parallel { threads: 4 }, None)
        );
        // Absent variable: sequential, nothing to warn about.
        assert_eq!(
            Execution::from_env_value(None),
            (Execution::Sequential, None)
        );
        // The classic typo falls back to sequential but surfaces the
        // offending value for the one-time warning. So does a zero
        // thread count.
        assert_eq!(resolve("paralell:4"), rejected("paralell:4"));
        assert_eq!(resolve("parallel:0"), rejected("parallel:0"));
        // The removed mode resolves to parallel with the removal note,
        // not the malformed-value warning...
        assert_eq!(
            resolve("speculative:4"),
            (
                Execution::Parallel { threads: 4 },
                Some(EnvNote::Removed("speculative:4".into()))
            )
        );
        // ...unless it is malformed as well.
        assert_eq!(resolve("speculative:0"), rejected("speculative:0"));
        assert_eq!(resolve("speculative:4x"), rejected("speculative:4x"));
        assert_eq!(resolve("spec ulative:4"), rejected("spec ulative:4"));
    }

    #[test]
    fn encode_decode_roundtrip() {
        for e in [
            Execution::Sequential,
            Execution::Parallel { threads: 1 },
            Execution::Parallel { threads: 7 },
            Execution::Parallel { threads: 509 },
        ] {
            assert_eq!(Execution::decode(e.encode()), e);
        }
        // No thread count collides with the "uninitialized" sentinel.
        assert_ne!(
            Execution::Parallel {
                threads: usize::MAX
            }
            .encode(),
            u64::MAX
        );
    }
}
