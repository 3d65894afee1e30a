//! Stackful user-space coroutines for simulated processes.
//!
//! The engine used to burn one OS thread (2 MiB of committed stack plus
//! a kernel context switch per commit-token handoff) per simulated
//! process, capping realistic cluster sizes at a few thousand
//! processes. This module replaces that with hand-rolled coroutines:
//! each process runs its real Rust closure on a small private stack,
//! and the scheduler's park/wake pair becomes an in-process context
//! switch — a few dozen instructions, no syscall. A full SDSC Comet
//! (1984 nodes x 24 processes ≈ 48k processes) fits on a laptop-class
//! host; the design has headroom to 1M+ processes at smaller stack
//! sizes.
//!
//! # Backends
//!
//! * **asm** (default on unix x86_64/aarch64): a `global_asm!` context
//!   switch saving exactly the callee-saved register set of the native
//!   ABI. Stacks are carved out of large lazily-paged slabs
//!   ([`StackPool`]), so 48k x 256 KiB costs virtual address space, not
//!   RAM — only pages a process actually touches are committed.
//! * **thread** (fallback, and `HPCBD_COROUTINE=threads`): each
//!   coroutine lazily owns an OS thread and resume/suspend is a
//!   mutex+condvar handshake. Semantically identical, scales like the
//!   old engine; exists for non-unix / exotic targets and as a
//!   debugging escape hatch (native stacks, full backtraces).
//!
//! Both backends expose the same contract, so the engine — and with it
//! every virtual-time result — is bit-identical across them.
//!
//! # Safety protocol
//!
//! A [`Coroutine`] is `Sync` but its `resume` is only sound under the
//! engine's ownership protocol: **at most one worker resumes a given
//! coroutine at any moment**. The engine guarantees this by routing
//! every wake through the per-process slot (one atomic state word:
//! running, parked, value pending) and the resume path — a pid enters a
//! worker's run-next slot or the shared queue exactly once per
//! suspension, and only the worker that took it out touches the
//! coroutine. Worker migration (pid parked on worker A, resumed on
//! worker B) is ordered by a release/acquire chain: A publishes the
//! parked state with a `Release` compare-exchange after saving the
//! context, the waker's `Acquire` swap of the state word reads it, and
//! the release/acquire pair on the run-next slot (or the resume-queue
//! mutex) carries it from the waker to B.
//!
//! Stack safety: coroutine stacks have no guard pages (48k stacks would
//! need ~96k VMAs, past the default `vm.max_map_count`). Instead the
//! low word of every stack holds a canary that is checked on each
//! switch-out; an overflow aborts the process with a message naming the
//! knob (`HPCBD_STACK_KIB`) that raises the stack size. Panics never
//! unwind across the switch boundary: the engine catches them inside
//! the coroutine, and a panic that escapes anyway aborts.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex};

/// Why a resumed coroutine handed control back to its worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SwitchOut {
    /// Suspended waiting for a wake; the worker must publish the parked
    /// state (or requeue if a value raced in).
    Parked,
    /// The process closure ran to completion; never resumed again.
    Done,
}

/// Default stack size per simulated process, in KiB.
const DEFAULT_STACK_KIB: usize = 256;
/// Hard floor: below this even entering the closure is unsafe.
const MIN_STACK_KIB: usize = 32;
/// Hard ceiling, to keep a typo from exhausting address space.
const MAX_STACK_KIB: usize = 64 * 1024;
/// Stacks are carved from slabs of at most this many bytes, so a huge
/// process count never needs one huge allocation (heuristic overcommit
/// refuses single reservations near physical RAM) while a small one
/// stays a single mmap.
const MAX_SLAB_BYTES: usize = 256 << 20;
/// Low-word stack canary, checked at every switch-out.
const CANARY: usize = 0x5AFE_57AC_CA11_ED00_u64 as usize;

/// Per-process stack size: `HPCBD_STACK_KIB` (clamped to 32..=65536),
/// default 256 KiB. Resolved once per process; the value is virtual —
/// only touched pages are ever committed.
pub fn stack_bytes() -> usize {
    static SZ: OnceLock<usize> = OnceLock::new();
    *SZ.get_or_init(|| {
        let kib = std::env::var("HPCBD_STACK_KIB")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_STACK_KIB);
        kib.clamp(MIN_STACK_KIB, MAX_STACK_KIB) * 1024
    })
}

#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
const ASM_BACKEND: bool = true;
#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
const ASM_BACKEND: bool = false;

/// Which coroutine backend this process uses (resolved once).
pub(crate) fn use_asm_backend() -> bool {
    static B: OnceLock<bool> = OnceLock::new();
    *B.get_or_init(|| match std::env::var("HPCBD_COROUTINE") {
        Ok(v) => match v.trim() {
            "threads" | "thread" => false,
            "asm" | "" => ASM_BACKEND,
            other => {
                eprintln!(
                    "warning: unrecognized HPCBD_COROUTINE value {other:?} \
                     (expected `asm` or `threads`); using the default backend"
                );
                ASM_BACKEND
            }
        },
        Err(_) => ASM_BACKEND,
    })
}

/// The coroutine (if any) running on the current OS thread — the target
/// [`suspend`] switches away from.
#[derive(Clone, Copy)]
enum CurrentCoro {
    None,
    #[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
    Asm(*const CoroCell),
    Thread(*const ThreadShared),
}

thread_local! {
    static CURRENT: Cell<CurrentCoro> = const { Cell::new(CurrentCoro::None) };
}

/// Suspend the currently running coroutine with [`SwitchOut::Parked`],
/// returning control to its worker. Returns when some worker resumes
/// it — possibly a different OS thread than the one that suspended.
///
/// Must be called from inside a coroutine body; anywhere else is an
/// engine bug and panics.
pub(crate) fn suspend() {
    match CURRENT.with(|c| c.get()) {
        CurrentCoro::None => {
            panic!("coroutine suspend outside a simulated process (engine bug)")
        }
        #[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
        CurrentCoro::Asm(cell) => unsafe {
            (*cell).out.set(SwitchOut::Parked);
            hpcbd_ctx_switch((*cell).coro_sp.as_ptr(), (*cell).worker_sp.as_ptr());
        },
        CurrentCoro::Thread(shared) => unsafe { (*shared).suspend() },
    }
}

// ---------------------------------------------------------------------
// Stack slabs (asm backend)
// ---------------------------------------------------------------------

/// Owns the stack memory of every coroutine in one simulation: a few
/// large lazily-paged slabs instead of one `mmap` per process (which
/// would trip `vm.max_map_count` near 64k processes). Empty under the
/// thread backend.
pub(crate) struct StackPool {
    slabs: Vec<(*mut u8, std::alloc::Layout)>,
    stacks: Vec<*mut u8>,
    stack_size: usize,
}

// Safety: the pool is plain owned memory; the raw pointers are unique
// to it and the coroutines borrowing stacks are dropped first (field
// order in `Coroutines`).
unsafe impl Send for StackPool {}
unsafe impl Sync for StackPool {}

impl StackPool {
    /// Reserve `n` stacks of the configured size (virtual reservation;
    /// pages commit lazily on first touch).
    fn new(n: usize) -> StackPool {
        let stack_size = stack_bytes();
        let per_slab = (MAX_SLAB_BYTES / stack_size).max(1);
        let mut slabs = Vec::new();
        let mut stacks = Vec::with_capacity(n);
        let mut remaining = n;
        while remaining > 0 {
            let count = remaining.min(per_slab);
            let layout = std::alloc::Layout::from_size_align(count * stack_size, 16)
                .expect("stack slab layout");
            // Safety: layout is non-zero (count >= 1, stack_size >= 32 KiB).
            let base = unsafe { std::alloc::alloc(layout) };
            assert!(
                !base.is_null(),
                "failed to reserve {} KiB of coroutine stacks for {} simulated \
                 processes; lower HPCBD_STACK_KIB (currently {} KiB per process)",
                layout.size() >> 10,
                n,
                stack_size >> 10,
            );
            for i in 0..count {
                let lo = unsafe { base.add(i * stack_size) };
                // Safety: lo is the start of an owned stack_size region.
                unsafe { (lo as *mut usize).write(CANARY) };
                stacks.push(lo);
            }
            slabs.push((base, layout));
            remaining -= count;
        }
        StackPool {
            slabs,
            stacks,
            stack_size,
        }
    }

    fn empty() -> StackPool {
        StackPool {
            slabs: Vec::new(),
            stacks: Vec::new(),
            stack_size: stack_bytes(),
        }
    }
}

impl Drop for StackPool {
    fn drop(&mut self) {
        for &(base, layout) in &self.slabs {
            // Safety: allocated by us with this exact layout.
            unsafe { std::alloc::dealloc(base, layout) };
        }
    }
}

// ---------------------------------------------------------------------
// asm backend: global_asm context switch + crafted stacks
// ---------------------------------------------------------------------

#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
mod asm_backend {
    use super::*;

    /// The switch cell of one coroutine: stable (boxed) storage for the
    /// two saved stack pointers and the switch-out reason. `worker_sp`
    /// is rewritten by whichever worker performs the current resume.
    #[repr(C)]
    pub(super) struct CoroCell {
        pub(super) coro_sp: Cell<usize>,
        pub(super) worker_sp: Cell<usize>,
        pub(super) out: Cell<SwitchOut>,
    }

    extern "C" {
        /// Save the callee-saved context on the current stack, store the
        /// resulting stack pointer to `*save`, load `*restore` and pop
        /// the context found there. Defined in `global_asm!` below.
        pub(super) fn hpcbd_ctx_switch(save: *mut usize, restore: *const usize);
        /// First-entry trampoline a fresh coroutine stack returns into.
        fn hpcbd_coro_tramp();
    }

    // x86_64 System V: callee-saved rbp, rbx, r12-r15. The trampoline
    // receives the entry environment in r12 and the entry function in
    // r13 (crafted into the register slots of a fresh stack), realigns,
    // and calls into Rust. Both plain and underscored labels are
    // emitted so the same asm links on ELF and Mach-O.
    #[cfg(target_arch = "x86_64")]
    std::arch::global_asm!(
        ".text",
        ".p2align 4",
        ".globl hpcbd_ctx_switch",
        ".globl _hpcbd_ctx_switch",
        "hpcbd_ctx_switch:",
        "_hpcbd_ctx_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov qword ptr [rdi], rsp",
        "mov rsp, qword ptr [rsi]",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".p2align 4",
        ".globl hpcbd_coro_tramp",
        ".globl _hpcbd_coro_tramp",
        "hpcbd_coro_tramp:",
        "_hpcbd_coro_tramp:",
        "mov rdi, r12",
        "and rsp, -16",
        "call r13",
        "ud2",
    );

    // aarch64 AAPCS64: callee-saved x19-x28, fp (x29), lr (x30) and
    // d8-d15. The trampoline receives the entry environment in x19 and
    // the entry function in x20.
    #[cfg(target_arch = "aarch64")]
    std::arch::global_asm!(
        ".text",
        ".p2align 2",
        ".globl hpcbd_ctx_switch",
        ".globl _hpcbd_ctx_switch",
        "hpcbd_ctx_switch:",
        "_hpcbd_ctx_switch:",
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "str x9, [x0]",
        "ldr x9, [x1]",
        "mov sp, x9",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
        ".p2align 2",
        ".globl hpcbd_coro_tramp",
        ".globl _hpcbd_coro_tramp",
        "hpcbd_coro_tramp:",
        "_hpcbd_coro_tramp:",
        "mov x0, x19",
        "br x20",
    );

    /// Heap box handed to a fresh coroutine: the closure to run and the
    /// cell to switch through when it finishes.
    struct EntryEnv {
        f: Box<dyn FnOnce() + Send>,
        cell: *const CoroCell,
    }

    /// Rust-side first frame of every coroutine. Never returns: a return
    /// would fall off the crafted stack base.
    unsafe extern "C" fn coro_entry(env: *mut EntryEnv) -> ! {
        let env = Box::from_raw(env);
        let cell = env.cell;
        let f = env.f;
        // The engine's process body catches every panic (including the
        // deadlock-teardown unwind) itself; one reaching this frame is
        // an engine bug, and unwinding past it would walk off the
        // crafted stack — abort instead.
        if panic::catch_unwind(AssertUnwindSafe(f)).is_err() {
            eprintln!("fatal: panic escaped a simulated-process coroutine (engine bug)");
            std::process::abort();
        }
        (*cell).out.set(SwitchOut::Done);
        loop {
            hpcbd_ctx_switch((*cell).coro_sp.as_ptr(), (*cell).worker_sp.as_ptr());
            // Resumed after Done: an engine protocol violation, but keep
            // reporting Done rather than running off the stack.
            (*cell).out.set(SwitchOut::Done);
        }
    }

    pub(super) struct AsmCoro {
        cell: Box<CoroCell>,
        stack_lo: *mut u8,
        started: Cell<bool>,
        done: Cell<bool>,
        /// Entry environment, owned until the first resume consumes it
        /// (kept so a never-started coroutine can free it on drop).
        env: Cell<*mut EntryEnv>,
    }

    impl AsmCoro {
        /// Craft a suspended coroutine on `stack_lo` whose first resume
        /// enters `f` via the trampoline.
        pub(super) fn new(
            stack_lo: *mut u8,
            stack_size: usize,
            f: Box<dyn FnOnce() + Send>,
        ) -> AsmCoro {
            let cell = Box::new(CoroCell {
                coro_sp: Cell::new(0),
                worker_sp: Cell::new(0),
                out: Cell::new(SwitchOut::Parked),
            });
            let env = Box::into_raw(Box::new(EntryEnv {
                f,
                cell: &*cell as *const CoroCell,
            }));
            // Craft the initial frame hpcbd_ctx_switch will pop.
            let top = (stack_lo as usize + stack_size) & !15;
            let sp;
            // Safety: the slots written all lie inside [stack_lo,
            // stack_lo + stack_size), above the canary word.
            unsafe {
                #[cfg(target_arch = "x86_64")]
                {
                    // Pop order r15,r14,r13,r12,rbx,rbp then ret.
                    sp = top - 7 * 8;
                    let w = sp as *mut usize;
                    std::ptr::write_bytes(w, 0, 7);
                    w.add(2).write(coro_entry as *const () as usize); // r13
                    w.add(3).write(env as usize); // r12
                    w.add(6).write(hpcbd_coro_tramp as *const () as usize); // ret
                }
                #[cfg(target_arch = "aarch64")]
                {
                    // One 160-byte register frame; ret jumps to x30.
                    sp = top - 160;
                    let w = sp as *mut usize;
                    std::ptr::write_bytes(w, 0, 20);
                    w.write(env as usize); // x19
                    w.add(1).write(coro_entry as *const () as usize); // x20
                    w.add(11).write(hpcbd_coro_tramp as *const () as usize); // x30
                }
            }
            cell.coro_sp.set(sp);
            AsmCoro {
                cell,
                stack_lo,
                started: Cell::new(false),
                done: Cell::new(false),
                env: Cell::new(env),
            }
        }

        /// Safety: caller is the unique resumer (engine protocol), and
        /// the coroutine is not Done.
        pub(super) unsafe fn resume(&self) -> SwitchOut {
            debug_assert!(!self.done.get(), "resume of a finished coroutine");
            if !self.started.get() {
                self.started.set(true);
                self.env.set(std::ptr::null_mut()); // coro_entry owns it now
            }
            let cell: *const CoroCell = &*self.cell;
            let prev = CURRENT.with(|c| c.replace(CurrentCoro::Asm(cell)));
            hpcbd_ctx_switch((*cell).worker_sp.as_ptr(), (*cell).coro_sp.as_ptr());
            CURRENT.with(|c| c.set(prev));
            if (self.stack_lo as *const usize).read() != CANARY {
                eprintln!(
                    "fatal: simulated-process stack overflow detected (canary \
                     clobbered); raise HPCBD_STACK_KIB (currently {} KiB)",
                    stack_bytes() >> 10
                );
                std::process::abort();
            }
            let out = self.cell.out.get();
            if out == SwitchOut::Done {
                self.done.set(true);
            }
            out
        }
    }

    impl Drop for AsmCoro {
        fn drop(&mut self) {
            let env = self.env.get();
            if !env.is_null() {
                // Never started: reclaim the entry environment. (A
                // started-but-unfinished coroutine leaks whatever its
                // suspended frames own; the engine only drops coroutines
                // after every process finished, so this is a safety net,
                // not a steady-state path.)
                drop(unsafe { Box::from_raw(env) });
            }
        }
    }
}

#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
use asm_backend::{hpcbd_ctx_switch, AsmCoro, CoroCell};

// ---------------------------------------------------------------------
// thread backend: one lazily-spawned OS thread per coroutine
// ---------------------------------------------------------------------

/// Handshake state of a thread-backed coroutine.
struct ThreadShared {
    m: Mutex<ThreadState>,
    cv: Condvar,
}

struct ThreadState {
    /// True while the coroutine side owns the baton.
    coro_turn: bool,
    out: SwitchOut,
    finished: bool,
}

impl ThreadShared {
    /// Safety: called from the coroutine's own thread while it holds
    /// the baton.
    unsafe fn suspend(&self) {
        let mut g = self.m.lock();
        g.out = SwitchOut::Parked;
        g.coro_turn = false;
        self.cv.notify_all();
        while !g.coro_turn {
            self.cv.wait(&mut g);
        }
    }
}

struct ThreadCoro {
    shared: Arc<ThreadShared>,
    /// Closure until the first resume spawns the thread.
    f: Cell<Option<Box<dyn FnOnce() + Send>>>,
    name: String,
    index: usize,
    total: usize,
    handle: Cell<Option<std::thread::JoinHandle<()>>>,
}

impl ThreadCoro {
    fn new(index: usize, total: usize, name: &str, f: Box<dyn FnOnce() + Send>) -> ThreadCoro {
        ThreadCoro {
            shared: Arc::new(ThreadShared {
                m: Mutex::new(ThreadState {
                    coro_turn: false,
                    out: SwitchOut::Parked,
                    finished: false,
                }),
                cv: Condvar::new(),
            }),
            f: Cell::new(Some(f)),
            name: name.to_string(),
            index,
            total,
            handle: Cell::new(None),
        }
    }

    fn resume(&self) -> SwitchOut {
        if let Some(f) = self.f.take() {
            let shared = self.shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("sim-{}", self.name))
                .stack_size(stack_bytes().max(1 << 20))
                .spawn(move || thread_coro_main(shared, f))
                .unwrap_or_else(|e| {
                    panic!(
                        "failed to spawn the coroutine-fallback thread for simulated \
                         process {} of {} ({:?}): {e}",
                        self.index, self.total, self.name
                    )
                });
            self.handle.set(Some(handle));
        }
        let mut g = self.shared.m.lock();
        debug_assert!(!g.finished, "resume of a finished coroutine");
        g.coro_turn = true;
        self.shared.cv.notify_all();
        while g.coro_turn {
            self.shared.cv.wait(&mut g);
        }
        g.out
    }
}

fn thread_coro_main(shared: Arc<ThreadShared>, f: Box<dyn FnOnce() + Send>) {
    {
        let mut g = shared.m.lock();
        while !g.coro_turn {
            shared.cv.wait(&mut g);
        }
    }
    CURRENT.with(|c| c.set(CurrentCoro::Thread(Arc::as_ptr(&shared))));
    if panic::catch_unwind(AssertUnwindSafe(f)).is_err() {
        eprintln!("fatal: panic escaped a simulated-process coroutine (engine bug)");
        std::process::abort();
    }
    let mut g = shared.m.lock();
    g.out = SwitchOut::Done;
    g.finished = true;
    g.coro_turn = false;
    shared.cv.notify_all();
}

impl Drop for ThreadCoro {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            if self.shared.m.lock().finished {
                let _ = h.join();
            }
            // A still-suspended coroutine thread is parked on its own
            // Arc of the handshake state; detaching leaks it, matching
            // the asm backend's suspended-drop semantics.
        }
    }
}

// ---------------------------------------------------------------------
// Backend-erased coroutine + per-simulation set
// ---------------------------------------------------------------------

enum CoroImpl {
    #[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
    Asm(AsmCoro),
    Thread(ThreadCoro),
}

/// One suspended-or-running simulated process.
pub(crate) struct Coroutine {
    inner: CoroImpl,
}

// Safety: resume/suspend mutate only through the switch cell, and the
// engine protocol guarantees a unique resumer per coroutine at any
// moment, with cross-worker migration ordered by the per-process slot
// mutex and the resume path (see module docs).
unsafe impl Send for Coroutine {}
unsafe impl Sync for Coroutine {}

impl Coroutine {
    /// Resume until the next suspension (or completion).
    ///
    /// Safety contract (not enforceable here): the caller is the unique
    /// resumer of this coroutine right now, and the coroutine has not
    /// returned [`SwitchOut::Done`] before.
    pub(crate) fn resume(&self) -> SwitchOut {
        match &self.inner {
            #[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
            CoroImpl::Asm(c) => unsafe { c.resume() },
            CoroImpl::Thread(c) => c.resume(),
        }
    }
}

/// All coroutines of one simulation plus the stack memory backing them.
/// Field order matters: coroutines drop before their stacks.
pub(crate) struct Coroutines {
    list: Vec<Coroutine>,
    #[allow(dead_code)] // owns the stack memory the coroutines run on
    pool: StackPool,
}

impl Coroutines {
    /// Build one suspended coroutine per `(name, body)` spec, on the
    /// process-wide backend.
    pub(crate) fn build(specs: Vec<(String, Box<dyn FnOnce() + Send>)>) -> Coroutines {
        let n = specs.len();
        if use_asm_backend() {
            #[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
            {
                let pool = StackPool::new(n);
                let list = specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (_, f))| Coroutine {
                        inner: CoroImpl::Asm(AsmCoro::new(pool.stacks[i], pool.stack_size, f)),
                    })
                    .collect();
                return Coroutines { list, pool };
            }
        }
        let list = specs
            .into_iter()
            .enumerate()
            .map(|(i, (name, f))| Coroutine {
                inner: CoroImpl::Thread(ThreadCoro::new(i, n, &name, f)),
            })
            .collect();
        Coroutines {
            list,
            pool: StackPool::empty(),
        }
    }

    /// Resume coroutine `idx` (engine protocol: unique resumer).
    pub(crate) fn resume(&self, idx: usize) -> SwitchOut {
        self.list[idx].resume()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn run_to_done(cs: &Coroutines, idx: usize) -> usize {
        let mut switches = 0;
        loop {
            switches += 1;
            match cs.resume(idx) {
                SwitchOut::Done => return switches,
                SwitchOut::Parked => {}
            }
        }
    }

    #[test]
    fn runs_a_plain_closure_to_completion() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let cs = Coroutines::build(vec![(
            "t".into(),
            Box::new(move || {
                h.fetch_add(1, Ordering::SeqCst);
            }),
        )]);
        assert_eq!(run_to_done(&cs, 0), 1);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn suspend_resumes_where_it_left_off() {
        let trail = Arc::new(Mutex::new(Vec::new()));
        let t = trail.clone();
        let cs = Coroutines::build(vec![(
            "t".into(),
            Box::new(move || {
                t.lock().push(1);
                suspend();
                t.lock().push(2);
                suspend();
                t.lock().push(3);
            }),
        )]);
        assert_eq!(cs.resume(0), SwitchOut::Parked);
        trail.lock().push(10);
        assert_eq!(cs.resume(0), SwitchOut::Parked);
        trail.lock().push(20);
        assert_eq!(cs.resume(0), SwitchOut::Done);
        assert_eq!(*trail.lock(), vec![1, 10, 2, 20, 3]);
    }

    #[test]
    fn many_interleaved_coroutines_keep_private_state() {
        let n = 64;
        let sum = Arc::new(AtomicUsize::new(0));
        let specs = (0..n)
            .map(|i| {
                let sum = sum.clone();
                let f: Box<dyn FnOnce() + Send> = Box::new(move || {
                    let mut local = i;
                    suspend();
                    local += 1000;
                    suspend();
                    sum.fetch_add(local, Ordering::SeqCst);
                });
                (format!("c{i}"), f)
            })
            .collect();
        let cs = Coroutines::build(specs);
        // Interleave: round-robin all coroutines through each stage.
        for _ in 0..2 {
            for i in 0..n {
                assert_eq!(cs.resume(i), SwitchOut::Parked);
            }
        }
        for i in 0..n {
            assert_eq!(cs.resume(i), SwitchOut::Done);
        }
        let expect: usize = (0..n).map(|i| i + 1000).sum();
        assert_eq!(sum.load(Ordering::SeqCst), expect);
    }

    #[test]
    fn resume_can_migrate_across_os_threads() {
        let cs = Arc::new(Coroutines::build(vec![(
            "m".into(),
            Box::new(move || {
                suspend();
                suspend();
            }),
        )]));
        assert_eq!(cs.resume(0), SwitchOut::Parked);
        let cs2 = cs.clone();
        std::thread::spawn(move || {
            assert_eq!(cs2.resume(0), SwitchOut::Parked);
        })
        .join()
        .unwrap();
        assert_eq!(cs.resume(0), SwitchOut::Done);
    }

    #[test]
    fn dropping_a_never_started_coroutine_frees_its_closure() {
        struct Flag(Arc<AtomicUsize>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let flag = Flag(drops.clone());
        let cs = Coroutines::build(vec![(
            "never".into(),
            Box::new(move || {
                let _keep = &flag;
            }),
        )]);
        drop(cs);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deep_stack_use_within_budget_is_fine() {
        // Touch a few KiB of frames recursively; far below the default
        // stack but enough to catch a broken stack layout immediately.
        fn burn(depth: usize) -> u64 {
            let pad = [depth as u64; 32];
            if depth == 0 {
                pad.iter().sum()
            } else {
                burn(depth - 1) + pad[0]
            }
        }
        let cs = Coroutines::build(vec![(
            "deep".into(),
            Box::new(move || {
                assert!(burn(64) > 0);
                suspend();
                assert!(burn(64) > 0);
            }),
        )]);
        assert_eq!(cs.resume(0), SwitchOut::Parked);
        assert_eq!(cs.resume(0), SwitchOut::Done);
    }

    #[test]
    fn stack_size_env_is_clamped() {
        // Can't re-read the env (OnceLock), but the clamp logic bounds
        // whatever was resolved.
        let sz = stack_bytes();
        assert!(sz >= MIN_STACK_KIB * 1024);
        assert!(sz <= MAX_STACK_KIB * 1024);
    }
}
