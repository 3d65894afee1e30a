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
//! # One backend
//!
//! A `global_asm!` context switch saving exactly the callee-saved
//! register set of the native ABI. Stacks are carved out of large
//! lazily-paged slabs ([`StackPool`]), so 48k x 256 KiB costs virtual
//! address space, not RAM — only pages a process actually touches are
//! committed.
//!
//! Supported targets: Linux and macOS, each on x86_64 (System V ABI)
//! and aarch64 (AAPCS64). Anything else fails to build.
//!
//! # Safety protocol
//!
//! A [`Coroutine`] is neither `Send` nor `Sync`, and neither are the
//! closures it runs: the [`Coroutines`] of a simulation live on the
//! stack of the thread that runs it, and that thread's resume loop is
//! the only caller of `resume`. Its `resume` is sound only while **the
//! coroutine is not already running and has not finished**. The engine
//! guarantees this by routing every wake through the per-process slot
//! (running, parked, value pending) and its run-next cell — a pid
//! enters the cell or its overflow queue exactly once per suspension,
//! and the resume loop takes it out before resuming it.
//!
//! Stack safety: coroutine stacks have no guard pages (48k stacks would
//! need ~96k VMAs, past the default `vm.max_map_count`). Instead the
//! low word of every stack holds a canary that is checked on each
//! switch-out; an overflow aborts the process with a message naming the
//! knob (`HPCBD_STACK_KIB`) that raises the stack size. Panics never
//! unwind across the switch boundary: the engine catches them inside
//! the coroutine, and a panic that escapes anyway aborts.

#[cfg(not(all(
    any(target_os = "linux", target_os = "macos"),
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "hpcbd-simnet's coroutines support Linux and macOS on x86_64 and \
     aarch64 only; this target is not supported"
);

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::OnceLock;

/// Why a resumed coroutine handed control back to its resumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SwitchOut {
    /// Suspended waiting for a wake.
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

thread_local! {
    /// The switch cell of the coroutine running on this OS thread (null
    /// outside any) — the target [`suspend`] switches away from.
    static CURRENT: Cell<*const CoroCell> = const { Cell::new(std::ptr::null()) };
}

/// Suspend the currently running coroutine with [`SwitchOut::Parked`],
/// returning control to the resume loop. Returns when the loop resumes
/// it.
///
/// Must be called from inside a coroutine body; anywhere else is an
/// engine bug and panics.
pub(crate) fn suspend() {
    let cell = CURRENT.with(|c| c.get());
    assert!(
        !cell.is_null(),
        "coroutine suspend outside a simulated process (engine bug)"
    );
    // Safety: `cell` is the running coroutine's switch cell, installed
    // by its resume and alive until that resume returns.
    unsafe {
        (*cell).out.set(SwitchOut::Parked);
        hpcbd_ctx_switch((*cell).coro_sp.as_ptr(), (*cell).worker_sp.as_ptr());
    }
}

// ---------------------------------------------------------------------
// Stack slabs
// ---------------------------------------------------------------------

/// Owns the stack memory of every coroutine in one simulation: a few
/// large lazily-paged slabs instead of one mapping per process (which
/// would trip `vm.max_map_count` near 64k processes). Each slab is its
/// own anonymous `mmap`, so every stack is page-aligned, and goes back
/// to the system when the simulation ends (a one-slab pool's is kept as
/// the thread's [`Spare`] first). Not through `malloc`: freeing one slab
/// raises glibc's mapping threshold, so the next simulation's slab would
/// come from the heap and stay resident.
pub(crate) struct StackPool {
    slabs: Vec<(*mut u8, usize)>,
    stacks: Vec<*mut u8>,
    stack_size: usize,
}

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 2;
#[cfg(target_os = "linux")]
const MAP_ANONYMOUS: i32 = 0x20;
#[cfg(target_os = "macos")]
const MAP_ANONYMOUS: i32 = 0x1000;
#[cfg(target_os = "linux")]
const MAP_NORESERVE: i32 = 0x4000;
#[cfg(target_os = "macos")]
const MAP_NORESERVE: i32 = 0x40;

/// The slab of the last one-slab pool dropped on this thread, kept
/// mapped for the next one-slab pool it is long enough for, whose stacks
/// then start on pages already resident (a short-lived `Sim` after
/// another faults its stacks in once, not each time). One at most, so
/// nothing accumulates; unmapped when it is replaced or the thread exits.
struct Spare(Cell<Option<(*mut u8, usize)>>);

impl Drop for Spare {
    fn drop(&mut self) {
        if let Some((base, len)) = self.0.take() {
            // Safety: mapped by `StackPool::new` with exactly this length.
            unsafe { munmap(base, len) };
        }
    }
}

thread_local! {
    static SPARE: Spare = const { Spare(Cell::new(None)) };
}

impl StackPool {
    /// Reserve `n` stacks of the configured size (virtual reservation;
    /// pages commit lazily on first touch).
    fn new(n: usize) -> StackPool {
        let stack_size = stack_bytes();
        let per_slab = (MAX_SLAB_BYTES / stack_size).max(1);
        let mut slabs = Vec::new();
        let mut stacks = Vec::with_capacity(n);
        let mut spare = SPARE.with(|s| s.0.take());
        let mut remaining = n;
        while remaining > 0 {
            let count = remaining.min(per_slab);
            let len = count * stack_size;
            let (base, len) = match spare.take() {
                Some(slab) if slab.1 >= len && count == n => slab,
                other => {
                    if let Some((base, len)) = other {
                        // Safety: mapped below with exactly this length.
                        unsafe { munmap(base, len) };
                    }
                    // Safety: a fresh private anonymous mapping; no
                    // existing memory is touched.
                    let base = unsafe {
                        mmap(
                            std::ptr::null_mut(),
                            len,
                            PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                            -1,
                            0,
                        )
                    };
                    (base, len)
                }
            };
            assert!(
                base as isize != -1,
                "failed to reserve {} KiB of coroutine stacks for {} simulated \
                 processes; lower HPCBD_STACK_KIB (currently {} KiB per process)",
                len >> 10,
                n,
                stack_size >> 10,
            );
            for i in 0..count {
                let lo = unsafe { base.add(i * stack_size) };
                // Safety: lo is the start of an owned stack_size region.
                unsafe { (lo as *mut usize).write(CANARY) };
                stacks.push(lo);
            }
            slabs.push((base, len));
            remaining -= count;
        }
        if let Some(&(_, len)) = slabs.first() {
            // Free a block of a slab's size through the global allocator.
            // Freeing a mapped block raises glibc's mmap threshold to its
            // size, as freeing the slabs did while they were `malloc`ed,
            // so the runtimes' buffers below it keep coming from the warm
            // heap instead of a fresh, zero-filled mapping each.
            let layout = std::alloc::Layout::from_size_align(len, 16).expect("slab layout");
            // Safety: a fresh allocation of this layout, freed unused.
            unsafe {
                let block = std::alloc::alloc(layout);
                if !block.is_null() {
                    std::alloc::dealloc(block, layout);
                }
            }
        }
        StackPool {
            slabs,
            stacks,
            stack_size,
        }
    }
}

impl Drop for StackPool {
    fn drop(&mut self) {
        let mut unmap = &self.slabs[..];
        if let [slab] = self.slabs[..] {
            // Outside thread-local teardown, keep the slab as the spare.
            if let Ok(old) = SPARE.try_with(|s| s.0.replace(Some(slab))) {
                unmap = &[];
                if let Some((base, len)) = old {
                    // Safety: mapped by `StackPool::new` with this length.
                    unsafe { munmap(base, len) };
                }
            }
        }
        for &(base, len) in unmap {
            // Safety: mapped by us with exactly this length.
            unsafe { munmap(base, len) };
        }
    }
}

// ---------------------------------------------------------------------
// Context switch + crafted stacks
// ---------------------------------------------------------------------

/// The switch cell of one coroutine: stable (boxed) storage for the two
/// saved stack pointers and the switch-out reason. `worker_sp` is the
/// resumer's, rewritten by every resume.
#[repr(C)]
struct CoroCell {
    coro_sp: Cell<usize>,
    worker_sp: Cell<usize>,
    out: Cell<SwitchOut>,
}

extern "C" {
    /// Save the callee-saved context on the current stack, store the
    /// resulting stack pointer to `*save`, load `*restore` and pop the
    /// context found there. Defined in `global_asm!` below.
    fn hpcbd_ctx_switch(save: *mut usize, restore: *const usize);
    /// First-entry trampoline a fresh coroutine stack returns into.
    fn hpcbd_coro_tramp();
}

// x86_64 System V: callee-saved rbp, rbx, r12-r15. The trampoline
// receives the entry environment in r12 and the entry function in r13
// (crafted into the register slots of a fresh stack), realigns, and
// calls into Rust. Both plain and underscored labels are emitted so the
// same asm links on ELF and Mach-O.
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

// aarch64 AAPCS64: callee-saved x19-x28, fp (x29), lr (x30) and d8-d15.
// The trampoline receives the entry environment in x19 and the entry
// function in x20.
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

/// Heap box handed to a fresh coroutine: the closure to run and the cell
/// to switch through when it finishes.
struct EntryEnv {
    f: Box<dyn FnOnce()>,
    cell: *const CoroCell,
}

/// Rust-side first frame of every coroutine. Never returns: a return
/// would fall off the crafted stack base.
unsafe extern "C" fn coro_entry(env: *mut EntryEnv) -> ! {
    let env = Box::from_raw(env);
    let cell = env.cell;
    let f = env.f;
    // The engine's process body catches every panic (including the
    // deadlock-teardown unwind) itself; one reaching this frame is an
    // engine bug, and unwinding past it would walk off the crafted
    // stack — abort instead.
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

/// One suspended-or-running simulated process.
pub(crate) struct Coroutine {
    cell: Box<CoroCell>,
    stack_lo: *mut u8,
    started: Cell<bool>,
    done: Cell<bool>,
    /// Entry environment, owned until the first resume consumes it (kept
    /// so a never-started coroutine can free it on drop).
    env: Cell<*mut EntryEnv>,
}

impl Coroutine {
    /// Craft a suspended coroutine on `stack_lo` whose first resume
    /// enters `f` via the trampoline.
    fn new(stack_lo: *mut u8, stack_size: usize, f: Box<dyn FnOnce()>) -> Coroutine {
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
        Coroutine {
            cell,
            stack_lo,
            started: Cell::new(false),
            done: Cell::new(false),
            env: Cell::new(env),
        }
    }

    /// Resume until the next suspension (or completion).
    ///
    /// Safety contract (not enforceable here): the caller is the unique
    /// resumer of this coroutine right now, and the coroutine has not
    /// returned [`SwitchOut::Done`] before.
    fn resume(&self) -> SwitchOut {
        debug_assert!(!self.done.get(), "resume of a finished coroutine");
        if !self.started.get() {
            self.started.set(true);
            self.env.set(std::ptr::null_mut()); // coro_entry owns it now
        }
        let cell: *const CoroCell = &*self.cell;
        let prev = CURRENT.with(|c| c.replace(cell));
        // Safety: the cell's saved stack pointer is either the crafted
        // first frame or the context this coroutine's last switch-out
        // saved; the resume loop is its only resumer.
        unsafe {
            hpcbd_ctx_switch((*cell).worker_sp.as_ptr(), (*cell).coro_sp.as_ptr());
        }
        CURRENT.with(|c| c.set(prev));
        // Safety: stack_lo is the start of this coroutine's owned stack.
        if unsafe { (self.stack_lo as *const usize).read() } != CANARY {
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

impl Drop for Coroutine {
    fn drop(&mut self) {
        let env = self.env.get();
        if !env.is_null() {
            // Never started: reclaim the entry environment. (A
            // started-but-unfinished coroutine leaks whatever its
            // suspended frames own; the engine only drops coroutines after
            // every process finished, so this is a safety net, not a
            // steady-state path.)
            drop(unsafe { Box::from_raw(env) });
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
    /// Build one suspended coroutine per body.
    pub(crate) fn build(bodies: Vec<Box<dyn FnOnce()>>) -> Coroutines {
        let pool = StackPool::new(bodies.len());
        let list = bodies
            .into_iter()
            .zip(&pool.stacks)
            .map(|(f, &lo)| Coroutine::new(lo, pool.stack_size, f))
            .collect();
        Coroutines { list, pool }
    }

    /// Resume coroutine `idx` (engine protocol: unique resumer).
    pub(crate) fn resume(&self, idx: usize) -> SwitchOut {
        self.list[idx].resume()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

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
        let hits = Rc::new(Cell::new(0));
        let h = hits.clone();
        let cs = Coroutines::build(vec![Box::new(move || h.set(h.get() + 1))]);
        assert_eq!(run_to_done(&cs, 0), 1);
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn suspend_resumes_where_it_left_off() {
        let trail = Rc::new(RefCell::new(Vec::new()));
        let t = trail.clone();
        let cs = Coroutines::build(vec![Box::new(move || {
            t.borrow_mut().push(1);
            suspend();
            t.borrow_mut().push(2);
            suspend();
            t.borrow_mut().push(3);
        })]);
        assert_eq!(cs.resume(0), SwitchOut::Parked);
        trail.borrow_mut().push(10);
        assert_eq!(cs.resume(0), SwitchOut::Parked);
        trail.borrow_mut().push(20);
        assert_eq!(cs.resume(0), SwitchOut::Done);
        assert_eq!(*trail.borrow(), vec![1, 10, 2, 20, 3]);
    }

    #[test]
    fn many_interleaved_coroutines_keep_private_state() {
        let n = 64;
        let sum = Rc::new(Cell::new(0));
        let bodies = (0..n)
            .map(|i| {
                let sum = sum.clone();
                Box::new(move || {
                    let mut local = i;
                    suspend();
                    local += 1000;
                    suspend();
                    sum.set(sum.get() + local);
                }) as Box<dyn FnOnce()>
            })
            .collect();
        let cs = Coroutines::build(bodies);
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
        assert_eq!(sum.get(), expect);
    }

    /// Counts its own drops into a shared cell.
    struct DropCount(Rc<Cell<u32>>);

    impl Drop for DropCount {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn dropping_a_never_started_coroutine_frees_its_closure() {
        let drops = Rc::new(Cell::new(0));
        let flag = DropCount(drops.clone());
        let cs = Coroutines::build(vec![Box::new(move || {
            let _keep = &flag;
        })]);
        drop(cs);
        assert_eq!(drops.get(), 1);
    }

    /// splitmix64: the seeded generator of the interleaving test.
    fn mix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Recurse `depth` frames, each holding a pad derived from
    /// `(id, step, depth)`, suspend at the bottom, and on the way back up
    /// check that every frame's pad survived the switch. Returns the
    /// number of clobbered frames.
    #[inline(never)]
    fn deep_suspend(id: u64, step: u64, depth: u32) -> u32 {
        let tag = (id << 40) | (step << 16) | u64::from(depth);
        let pad = std::hint::black_box([tag; 16]);
        let below = if depth == 0 {
            suspend();
            0
        } else {
            deep_suspend(id, step, depth - 1)
        };
        below + u32::from(pad.iter().any(|&w| w != tag))
    }

    /// The switch under random interleavings: up to 64 coroutines on one
    /// stack pool, each suspending a random number of times from a
    /// random depth (0 = a shallow frame), resumed and dropped in a
    /// seeded random order. Every coroutine must see its own locals
    /// intact after every switch and take exactly as many resumes as it
    /// suspends plus one, and every closure must be freed exactly once:
    /// at completion, or by the drop of a coroutine that never started.
    /// A coroutine that is mid-flight is never dropped (it would leak its
    /// frames; see `Coroutine`'s `Drop`).
    #[test]
    fn random_interleavings_keep_private_state_and_free_each_closure_once() {
        for seed in 0..48u64 {
            let mut rng = seed;
            let n = 1 + (mix(&mut rng) % 64) as usize;
            let clobbered = Rc::new(Cell::new(0u32));
            let progress: Vec<Rc<Cell<u64>>> = (0..n).map(|_| Rc::new(Cell::new(0))).collect();
            let drops: Vec<Rc<Cell<u32>>> = (0..n).map(|_| Rc::new(Cell::new(0))).collect();
            let mut steps = Vec::with_capacity(n);
            let pool = StackPool::new(n);
            let mut coros: Vec<Option<Coroutine>> = (0..n)
                .map(|i| {
                    let k = mix(&mut rng) % 6;
                    let depth = (mix(&mut rng) % 40) as u32;
                    steps.push(k);
                    let token = DropCount(drops[i].clone());
                    let clobbered = clobbered.clone();
                    let progress = progress[i].clone();
                    let id = i as u64;
                    let body: Box<dyn FnOnce()> = Box::new(move || {
                        let _token = token;
                        let mut local = [id; 8];
                        for step in 0..k {
                            let bad = if depth == 0 {
                                suspend();
                                0
                            } else {
                                deep_suspend(id, step, depth)
                            };
                            clobbered.set(clobbered.get() + bad);
                            let ok = local.iter().all(|&w| w == id + step);
                            clobbered.set(clobbered.get() + u32::from(!ok));
                            local = [id + step + 1; 8];
                            progress.set(step + 1);
                        }
                    });
                    Some(Coroutine::new(pool.stacks[i], pool.stack_size, body))
                })
                .collect();
            let mut resumes = vec![0u64; n];
            let mut live: Vec<usize> = (0..n).collect();
            while !live.is_empty() {
                let pick = (mix(&mut rng) % live.len() as u64) as usize;
                let i = live[pick];
                let c = coros[i].as_ref().unwrap();
                let never_started = !c.started.get();
                if never_started && mix(&mut rng).is_multiple_of(8) {
                    coros[i] = None;
                    assert_eq!(drops[i].get(), 1, "seed {seed}: dropped closure {i}");
                    live.swap_remove(pick);
                    continue;
                }
                resumes[i] += 1;
                match c.resume() {
                    SwitchOut::Parked => {
                        assert!(resumes[i] <= steps[i], "seed {seed}: {i} parked late");
                        assert_eq!(progress[i].get(), resumes[i] - 1);
                        assert_eq!(drops[i].get(), 0);
                    }
                    SwitchOut::Done => {
                        assert_eq!(resumes[i], steps[i] + 1, "seed {seed}: {i} done early");
                        assert_eq!(progress[i].get(), steps[i]);
                        assert_eq!(drops[i].get(), 1, "seed {seed}: finished closure {i}");
                        if mix(&mut rng).is_multiple_of(2) {
                            coros[i] = None;
                        }
                        live.swap_remove(pick);
                    }
                }
            }
            drop(coros);
            drop(pool);
            assert_eq!(clobbered.get(), 0, "seed {seed}: private state clobbered");
            for (i, d) in drops.iter().enumerate() {
                assert_eq!(
                    d.get(),
                    1,
                    "seed {seed}: closure {i} freed {} times",
                    d.get()
                );
            }
        }
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
        let cs = Coroutines::build(vec![Box::new(move || {
            assert!(burn(64) > 0);
            suspend();
            assert!(burn(64) > 0);
        })]);
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
