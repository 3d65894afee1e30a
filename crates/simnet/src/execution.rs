//! `HPCBD_EXECUTION`, the switch of the removed engine modes. The engine
//! has one schedule; the variable is still read so that a value naming a
//! removed mode (`parallel[:N]`, `speculative[:N]`, which scripts and
//! `benchmark/` still pass) or a malformed one is reported once on
//! stderr instead of passing silently. Every value runs the same engine.

/// What to tell the user about an `HPCBD_EXECUTION` value.
#[derive(Debug, PartialEq, Eq)]
enum EnvNote {
    /// A removed mode, well formed: it runs sequentially.
    Removed,
    /// Not a mode name at all.
    Malformed,
}

fn env_note(value: &str) -> Option<EnvNote> {
    let v = value.trim();
    if matches!(v, "" | "sequential" | "seq") {
        return None;
    }
    let (mode, threads) = v
        .split_once(':')
        .map_or((v, None), |(m, n)| (m, Some(n.trim())));
    let removed = matches!(mode, "parallel" | "par" | "speculative" | "spec")
        && threads.is_none_or(|n| n.parse::<usize>().is_ok_and(|n| n > 0));
    Some(if removed {
        EnvNote::Removed
    } else {
        EnvNote::Malformed
    })
}

/// Read `HPCBD_EXECUTION` and, the first time a value needs it, print a
/// one-line note on stderr.
pub(crate) fn note_execution_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let Ok(v) = std::env::var("HPCBD_EXECUTION") else {
            return;
        };
        match env_note(&v) {
            None => {}
            Some(EnvNote::Removed) => eprintln!(
                "note: HPCBD_EXECUTION={v:?} names a removed engine mode; \
                 running the sequential engine"
            ),
            Some(EnvNote::Malformed) => eprintln!(
                "warning: unrecognized HPCBD_EXECUTION value {v:?} \
                 (expected `sequential`); running the sequential engine"
            ),
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_unset_and_empty_run_silently() {
        for v in ["sequential", "seq", "", "  ", "\tseq "] {
            assert_eq!(env_note(v), None, "{v:?}");
        }
    }

    #[test]
    fn removed_modes_get_the_removal_note() {
        for v in [
            "parallel",
            "par",
            "parallel:4",
            " parallel: 8\n",
            "speculative:2",
            "spec",
            "spec:1",
        ] {
            assert_eq!(env_note(v), Some(EnvNote::Removed), "{v:?}");
        }
    }

    #[test]
    fn malformed_values_get_the_warning() {
        for v in [
            "paralell:4",
            "parallel:0",
            "speculative:0",
            "parallel:",
            "parallel:-1",
            "parallel:4x",
            "parallel:18446744073709551616",
            "spec ulative:4",
            "sequential:2",
            "bogus",
        ] {
            assert_eq!(env_note(v), Some(EnvNote::Malformed), "{v:?}");
        }
    }
}
