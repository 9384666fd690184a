//! Stackful coroutines: the substrate simulated cores run on.
//!
//! A [`Coroutine`] is a closure with a stack of its own. Whoever holds
//! it calls [`Coroutine::resume`] with an input; the closure runs on
//! its stack until it calls [`Yielder::suspend`] with an output (or
//! returns its final one), and `resume` returns that output on the
//! caller's stack. Nothing else happens: no thread, no lock, no system
//! call — a resume or a suspend is one [`switch`], which stores the
//! callee-saved registers, swaps stack pointers and loads the other
//! side's registers back.
//!
//! This file holds all the `unsafe` code of the crate, and hands the
//! engine an interface that safe code cannot misuse:
//!
//! - The input/output mailbox and the bookkeeping live in a [`Task`]
//!   made of `Cell`s, shared by `Rc` between the [`Coroutine`] and its
//!   [`Yielder`]. No `&mut` to it exists, so none is live across a
//!   switch, and the record cannot move or be freed while either side
//!   can still reach it.
//! - `suspend` checks that it is running on its own task's stack and
//!   `resume` that the task is not already running, so a handle used
//!   from the wrong place panics instead of switching.
//! - Dropping a suspended coroutine *cancels* it: it is resumed with no
//!   input, `suspend` returns `None`, and the closure is expected to
//!   unwind (the engine raises its `EngineGone` payload) so every
//!   destructor on the coroutine's stack runs before the stack is
//!   unmapped. A coroutine that was never resumed just drops its boxed
//!   closure.
//! - There is no `static` and no thread-local: any number of threads
//!   can each run their own coroutines at once. Both handles are
//!   `!Send` (they hold an `Rc`), so a coroutine stays on the thread
//!   that created it.
//!
//! ## Stacks
//!
//! Each coroutine owns an anonymous private `mmap` of [`STACK_BYTES`]
//! (32 MiB — behaviours recurse: `wait()` runs stolen tasks on the
//! same stack) plus a `PROT_NONE` guard below it. The mapping is
//! `MAP_NORESERVE` and never written by this module beyond the first
//! frame, so only pages a behaviour actually touches are committed,
//! and it is unmapped when the task is dropped. Running off the end
//! hits the guard: the process dies with SIGSEGV rather than Rust's
//! "thread has overflowed its stack" message, which only knows about
//! thread stacks.
//!
//! ## Targets
//!
//! Linux on x86_64 (System V: rbx, rbp, r12–r15, MXCSR, x87 control
//! word) and on aarch64 (AAPCS64: x19–x30, d8–d15, FPCR). CI builds and
//! runs the x86_64 code, debug and release; the aarch64 code is
//! compile-checked there, not run. Any other target is a compile
//! error — there is no fallback substrate.

use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::rc::Rc;

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "mosaic-sim runs simulated cores as stackful coroutines and has a context \
     switch for x86_64 and aarch64 Linux only"
);

/// Usable stack per coroutine.
const STACK_BYTES: usize = 32 << 20;

/// Inaccessible bytes below each stack. One page would do; 64 KiB
/// covers every page size Linux runs with on the supported targets.
const GUARD_BYTES: usize = 64 << 10;

// Linux values, identical on x86_64 and aarch64.
const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x2_0000;

// SAFETY: the C library's declarations of these three calls on 64-bit
// Linux (`size_t` = usize, `off_t` = i64).
unsafe extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// An owned stack mapping: guard at the low end, stack growing down
/// from the high end.
struct Stack {
    base: *mut u8,
}

impl Stack {
    const MAPPED: usize = GUARD_BYTES + STACK_BYTES;

    fn new() -> std::io::Result<Stack> {
        // SAFETY: a fresh anonymous mapping at an address the kernel
        // picks aliases nothing this program knows about.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                Self::MAPPED,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        let stack = Stack { base: base.cast() };
        // SAFETY: the range is the low end of the mapping just made and
        // nothing has been stored there.
        if unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(stack)
    }

    /// One past the highest usable byte; page-aligned, so 16-aligned.
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(Self::MAPPED)
    }

    fn contains(&self, p: *const u8) -> bool {
        let (p, base) = (p as usize, self.base as usize);
        p >= base + GUARD_BYTES && p < base + Self::MAPPED
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // The task that owns this stack is being dropped, which
        // `Coroutine`'s drop only allows once the closure has finished
        // or was never started (see there).
        // SAFETY: exactly the range `new` mapped, and nothing is
        // running on it or pointing into it any more.
        unsafe { munmap(self.base.cast(), Self::MAPPED) };
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Created, never resumed: the stack holds only the first frame.
    Fresh,
    /// Executing on its own stack, somewhere below a `resume`.
    Running,
    /// Parked in `suspend`, waiting for the next `resume`.
    Suspended,
    /// The closure returned; the stack holds nothing live.
    Done,
}

type Body<I, O> = Box<dyn FnOnce(Yielder<I, O>, I) -> O>;

/// Everything the two sides share. Heap-allocated behind an `Rc`, so
/// its address is stable for as long as either side exists.
struct Task<I, O> {
    /// Where `resume` was when it switched in; `suspend` returns there.
    resumer_sp: Cell<*mut u8>,
    /// Where the coroutine was when it last switched out (or its first
    /// frame); `resume` continues there.
    coro_sp: Cell<*mut u8>,
    state: Cell<State>,
    /// Mailbox, resumer → coroutine. Empty on a cancelling resume.
    input: Cell<Option<I>>,
    /// Mailbox, coroutine → resumer.
    output: Cell<Option<O>>,
    /// The closure, until the first resume takes it.
    body: Cell<Option<Body<I, O>>>,
    stack: Stack,
}

impl<I, O> Task<I, O> {
    /// Run the coroutine until it next switches out.
    fn switch_in(&self) {
        self.state.set(State::Running);
        // `coro_sp` is a context on this task's stack — the first frame
        // `Coroutine::new` laid out, or the one `switch` saved when the
        // coroutine last switched out — and the stack is mapped because
        // `self` is alive. The state was Fresh or Suspended, so nothing
        // is executing on that stack now. Both slots are `Cell`s
        // reached through `&self`: no unique reference to the task
        // exists for the switch to invalidate.
        // SAFETY: `to` is a saved, idle context continued once; `save`
        // is a live `Cell`. Argued in full just above.
        unsafe { arch::switch(self.resumer_sp.as_ptr(), self.coro_sp.get()) };
    }

    /// Back to whoever resumed us. Returns when resumed again (never,
    /// after `Done`).
    fn switch_out(&self, state: State) {
        self.state.set(state);
        // Called on this task's stack (`suspend` checks it, `entry` is
        // there by construction) below a `switch_in`.
        // SAFETY: `resumer_sp` is the context that `switch_in` saved and
        // is parked in, continued once. Cells only, as in `switch_in`.
        unsafe { arch::switch(self.coro_sp.as_ptr(), self.resumer_sp.get()) };
    }
}

/// First function on every coroutine stack: run the body, publish its
/// result, switch out for good.
///
/// It cannot return (there is no caller frame above it), so nothing
/// with a destructor may be live at the final switch: every local is
/// confined to the inner block. A panic escaping `body` cannot unwind
/// out of an `extern "C"` function and aborts the process; the engine's
/// body catches behaviour panics itself.
///
/// # Safety
///
/// `task` must point to a live `Task` that stays alive until this
/// function has switched out for the last time, and the call must be
/// the trampoline's on that task's own stack.
// SAFETY: an `unsafe fn`; its caller owes the contract above.
unsafe extern "C" fn entry<I, O>(task: *const Task<I, O>) -> ! {
    // SAFETY: live per the contract — the `Coroutine` whose `resume`
    // or `drop` switched in holds an `Rc` to it for that whole call.
    let task_ref = unsafe { &*task };
    {
        // SAFETY: `task` came from `Rc::as_ptr` on a live `Rc`; the
        // count is raised first, so this `Rc` owns one reference of its
        // own and the `Coroutine`'s is untouched.
        let yielder = unsafe {
            Rc::increment_strong_count(task);
            Yielder {
                task: Rc::from_raw(task),
            }
        };
        let body = task_ref.body.take().expect("a fresh coroutine has a body");
        let input = task_ref
            .input
            .take()
            .expect("the first resume carries an input");
        let out = body(yielder, input);
        task_ref.output.set(Some(out));
    }
    task_ref.switch_out(State::Done);
    unreachable!("a finished coroutine was resumed");
}

/// The resumer's handle: owns the coroutine.
pub(crate) struct Coroutine<I, O> {
    task: Rc<Task<I, O>>,
}

/// The coroutine's own handle, passed to its body.
pub(crate) struct Yielder<I, O> {
    task: Rc<Task<I, O>>,
}

impl<I, O> Coroutine<I, O> {
    /// Map a stack and park `body` at its top. Nothing runs until the
    /// first [`Coroutine::resume`], whose input `body` receives as its
    /// second argument; `body`'s return value is the coroutine's last
    /// output.
    pub(crate) fn new<F>(body: F) -> std::io::Result<Self>
    where
        F: FnOnce(Yielder<I, O>, I) -> O + 'static,
    {
        let task = Rc::new(Task {
            resumer_sp: Cell::new(std::ptr::null_mut()),
            coro_sp: Cell::new(std::ptr::null_mut()),
            state: Cell::new(State::Fresh),
            input: Cell::new(None),
            output: Cell::new(None),
            body: Cell::new(Some(Box::new(body) as Body<I, O>)),
            stack: Stack::new()?,
        });
        let entry = entry::<I, O> as *const () as usize;
        // SAFETY: `top` is the 16-aligned end of a writable mapping far
        // larger than the first frame.
        let sp = unsafe { arch::first_frame(task.stack.top(), Rc::as_ptr(&task) as usize, entry) };
        task.coro_sp.set(sp);
        Ok(Coroutine { task })
    }

    /// Hand `input` to the coroutine and run it until it suspends or
    /// finishes; returns what it handed back.
    ///
    /// # Panics
    ///
    /// Panics if the coroutine has finished, or is the one calling.
    pub(crate) fn resume(&mut self, input: I) -> O {
        let task = &*self.task;
        assert!(
            matches!(task.state.get(), State::Fresh | State::Suspended),
            "resumed a coroutine that is {:?}",
            task.state.get()
        );
        task.input.set(Some(input));
        task.switch_in();
        task.output
            .take()
            .expect("a coroutine switches out with an output")
    }
}

impl<I, O> Drop for Coroutine<I, O> {
    fn drop(&mut self) {
        // Cancel: resume with an empty mailbox until the closure has
        // unwound off its stack. Once is enough for a closure that
        // propagates the unwind `suspend`'s `None` asks for; one that
        // swallows it and suspends again is asked again. A Fresh task
        // never ran: its body is dropped with the task. Running is
        // impossible here — `resume` borrows `self` for as long as the
        // coroutine executes.
        while self.task.state.get() == State::Suspended {
            self.task.switch_in();
            drop(self.task.output.take());
        }
    }
}

impl<I, O> Yielder<I, O> {
    /// Hand `out` to the resumer and park until resumed again. `None`
    /// means the coroutine is being cancelled (its owner was dropped):
    /// the caller must unwind out of the body without suspending again.
    ///
    /// # Panics
    ///
    /// Panics if called anywhere but on this coroutine's own stack.
    pub(crate) fn suspend(&mut self, out: O) -> Option<I> {
        let task = &*self.task;
        let here = 0u8;
        assert!(
            task.state.get() == State::Running && task.stack.contains(&here),
            "suspend called off the coroutine's own stack"
        );
        task.output.set(Some(out));
        task.switch_out(State::Suspended);
        task.input.take()
    }
}

#[cfg(target_arch = "x86_64")]
mod arch {
    use std::arch::naked_asm;

    /// MXCSR and x87 control word a new coroutine starts with: the
    /// values every thread starts with (all exceptions masked, round to
    /// nearest, 64-bit x87 precision).
    const FIRST_MXCSR: usize = 0x1F80;
    const FIRST_X87_CW: usize = 0x037F;

    /// Save the current context on the current stack, store its stack
    /// pointer to `*save`, and continue the context at `to`.
    ///
    /// A context is, from `rsp` up: one word holding MXCSR (low four
    /// bytes) and the x87 control word (next two), then r15, r14, r13,
    /// r12, rbx, rbp, then the return address — every register the
    /// System V ABI makes a callee preserve. The caller-saved ones are
    /// dead across any `extern "C"` call, which is what the compiler
    /// sees this as.
    ///
    /// # Safety
    ///
    /// `to` must be a context saved by this function, or laid out by
    /// [`first_frame`], on a mapped stack on which nothing is running,
    /// and be continued at most once. `save` must be valid for a write
    /// and must not sit behind a live `&mut`.
    // SAFETY: naked, so the asm below is the whole function and nothing
    // touches the stack before its pushes; callers owe the contract above.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
        naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr [rsp]",
            "fnstcw [rsp + 4]",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "ldmxcsr [rsp]",
            "fldcw [rsp + 4]",
            "add rsp, 8",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// Where a fresh context "returns" to: r12 holds the task pointer
    /// and r13 the entry function, which never returns.
    // SAFETY: naked; entered only by `switch`'s `ret` into a frame
    // built by `first_frame`, never called.
    #[unsafe(naked)]
    extern "C" fn trampoline() {
        naked_asm!("mov rdi, r12", "call r13", "ud2")
    }

    /// Lay out below `top` the context that makes the first switch
    /// start `entry(task)`, and return its stack pointer.
    ///
    /// The two zero words above the return address keep `rsp`
    /// 16-aligned at the trampoline's `call`, as the ABI requires, and
    /// end the frame chain for anything walking it.
    ///
    /// # Safety
    ///
    /// `top` must be 16-aligned with at least ten writable words
    /// directly below it.
    // SAFETY: an `unsafe fn`; its caller owes the contract above.
    pub(super) unsafe fn first_frame(top: *mut u8, task: usize, entry: usize) -> *mut u8 {
        let frame: [usize; 10] = [
            FIRST_MXCSR | FIRST_X87_CW << 32,
            0,     // r15
            0,     // r14
            entry, // r13
            task,  // r12
            0,     // rbx
            0,     // rbp
            trampoline as extern "C" fn() as usize,
            0,
            0,
        ];
        // SAFETY: the caller guarantees the ten words below `top`.
        unsafe {
            let sp = top.cast::<[usize; 10]>().sub(1);
            sp.write(frame);
            sp.cast()
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    use std::arch::naked_asm;

    /// Save the current context on the current stack, store its stack
    /// pointer to `*save`, and continue the context at `to`.
    ///
    /// A context is 176 bytes from `sp` up: x19–x28, x29 (frame
    /// pointer), x30 (the address to continue at), d8–d15, FPCR and a
    /// padding word — everything AAPCS64 makes a callee preserve.
    ///
    /// # Safety
    ///
    /// As for the x86_64 `switch`: `to` is a context saved by this
    /// function or laid out by [`first_frame`] on a mapped stack
    /// nothing is running on, continued at most once; `save` is valid
    /// for a write and not behind a live `&mut`.
    // SAFETY: naked, so the asm below is the whole function and nothing
    // touches the stack before its stores; callers owe the contract above.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
        naked_asm!(
            "sub sp, sp, #176",
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
            "mrs x9, fpcr",
            "str x9, [sp, #160]",
            "mov x9, sp",
            "str x9, [x0]",
            "mov sp, x1",
            "ldr x9, [sp, #160]",
            "msr fpcr, x9",
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
            "add sp, sp, #176",
            "ret",
        )
    }

    /// Where a fresh context continues: x19 holds the task pointer and
    /// x20 the entry function, which never returns.
    // SAFETY: naked; entered only by `switch`'s `ret` into a frame
    // built by `first_frame`, never called.
    #[unsafe(naked)]
    extern "C" fn trampoline() {
        naked_asm!("mov x0, x19", "blr x20", "brk #1")
    }

    /// Lay out below `top` the context that makes the first switch
    /// start `entry(task)`, and return its stack pointer. x29 is zero,
    /// which ends the frame chain; FPCR zero is the thread default.
    ///
    /// # Safety
    ///
    /// `top` must be 16-aligned with at least 22 writable words
    /// directly below it.
    // SAFETY: an `unsafe fn`; its caller owes the contract above.
    pub(super) unsafe fn first_frame(top: *mut u8, task: usize, entry: usize) -> *mut u8 {
        let mut frame = [0usize; 22];
        frame[0] = task; // x19
        frame[1] = entry; // x20
        frame[11] = trampoline as extern "C" fn() as usize; // x30
                                                            // SAFETY: the caller guarantees the 22 words below `top`.
        unsafe {
            let sp = top.cast::<[usize; 22]>().sub(1);
            sp.write(frame);
            sp.cast()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    #[test]
    fn values_cross_in_both_directions() {
        let mut co = Coroutine::new(|mut y: Yielder<u32, u32>, first| {
            let mut acc = first;
            for _ in 0..3 {
                acc += y.suspend(acc * 10).expect("not cancelled");
            }
            acc
        })
        .expect("map a stack");
        assert_eq!(co.resume(1), 10);
        assert_eq!(co.resume(2), 30);
        assert_eq!(co.resume(3), 60);
        assert_eq!(co.resume(4), 10, "the body's return value comes last");
    }

    #[test]
    #[should_panic(expected = "resumed a coroutine that is Done")]
    fn resuming_a_finished_coroutine_panics() {
        let mut co = Coroutine::new(|_y: Yielder<(), ()>, ()| ()).expect("map a stack");
        co.resume(());
        co.resume(());
    }

    #[test]
    fn a_yielder_used_off_its_stack_panics_instead_of_switching() {
        // The body leaks its yielder to the resumer — the one misuse
        // safe code can construct.
        let slot = Rc::new(Cell::new(None));
        let leak = slot.clone();
        let mut co =
            Coroutine::new(move |y: Yielder<(), ()>, ()| leak.set(Some(y))).expect("map a stack");
        co.resume(());
        let mut stray = slot.take().expect("the body stored its yielder");
        let caught = catch_unwind(AssertUnwindSafe(|| stray.suspend(())));
        assert!(caught.is_err());
        // The stray handle keeps the task (and its stack) alive past
        // the coroutine; dropping it last unmaps.
        drop(co);
        drop(stray);
    }

    struct Bump(Rc<Cell<u32>>);
    impl Drop for Bump {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn dropping_a_suspended_coroutine_unwinds_its_stack() {
        struct Cancelled;
        let drops = Rc::new(Cell::new(0));
        let guard = Bump(drops.clone());
        let mut co = Coroutine::new(move |mut y: Yielder<(), u32>, ()| {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _held = guard;
                loop {
                    if y.suspend(1).is_none() {
                        resume_unwind(Box::new(Cancelled));
                    }
                }
            }));
            assert!(result.is_err_and(|p| p.is::<Cancelled>()));
            0
        })
        .expect("map a stack");
        assert_eq!(co.resume(()), 1);
        assert_eq!(co.resume(()), 1);
        assert_eq!(drops.get(), 0);
        drop(co);
        assert_eq!(drops.get(), 1, "the guard on the coroutine stack dropped");
    }

    #[test]
    fn dropping_a_fresh_coroutine_drops_the_body_unrun() {
        let drops = Rc::new(Cell::new(0));
        let ran = Rc::new(Cell::new(false));
        let (guard, flag) = (Bump(drops.clone()), ran.clone());
        let co = Coroutine::new(move |_y: Yielder<(), ()>, ()| {
            let _held = &guard;
            flag.set(true);
        })
        .expect("map a stack");
        drop(co);
        assert_eq!(drops.get(), 1);
        assert!(!ran.get());
    }

    #[test]
    fn coroutines_nest() {
        let mut outer = Coroutine::new(|mut y: Yielder<u32, u32>, first| {
            let mut inner = Coroutine::new(|mut y: Yielder<u32, u32>, first| {
                let second = y.suspend(first + 1).expect("not cancelled");
                second + 1
            })
            .expect("map a stack");
            let a = inner.resume(first);
            let next = y.suspend(a).expect("not cancelled");
            inner.resume(next)
        })
        .expect("map a stack");
        assert_eq!(outer.resume(10), 11);
        assert_eq!(outer.resume(20), 21);
    }
}
