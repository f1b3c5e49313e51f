//! Target programs: applications running on the simulated SoC.
//!
//! The simulated SoC must be oblivious to the fact that it is in a
//! simulated environment (Section 3.4.2): it receives sensor data and
//! performs actuation by communicating through I/O devices, with no access
//! to simulation-level APIs. A [`TargetProgram`] expresses the application
//! as a sequence of [`TargetOp`]s — receive a message from the RoSÉ I/O,
//! run compute kernels on the CPU or accelerator, send a message — whose
//! cycle costs are produced by the SoC's timing models.
//!
//! This is the transaction-level equivalent of the paper's RISC-V Linux
//! binaries: the *structure* of the application (what it reads, computes,
//! and writes, in what order, with data-dependent decisions) is preserved,
//! while the instruction-stream timing comes from the kernel models.

use crate::gemmini::ConvShape;
use crate::kernel::Kernel;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};

/// One operation issued by a target program.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetOp {
    /// Run a CPU kernel to completion.
    CpuKernel(Kernel),
    /// Run a convolution on the DNN accelerator.
    ///
    /// # Panics (at execution time)
    ///
    /// The SoC panics if it has no accelerator; programs must select CPU
    /// kernels on accelerator-less configurations.
    AccelConv(ConvShape),
    /// Run a matmul on the DNN accelerator.
    AccelMatmul {
        /// Rows of A/C.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns of B/C.
        n: usize,
    },
    /// Block until a message arrives from the RoSÉ bridge RX queue, then
    /// read it through MMIO. The message is delivered via
    /// [`ProgContext::take_message`] before the next `next_op` call.
    Recv,
    /// Write a message to the RoSÉ bridge TX queue through MMIO.
    Send(Vec<u8>),
    /// Idle for a fixed number of cycles (timer sleep).
    Sleep(u64),
    /// Terminate the program; the SoC idles forever after.
    Halt,
}

impl TargetOp {
    /// Serializes the operation (tag byte plus payload).
    pub fn save_state(&self, w: &mut SnapWriter) {
        match self {
            TargetOp::CpuKernel(kernel) => {
                w.u8(0);
                kernel.save_state(w);
            }
            TargetOp::AccelConv(shape) => {
                w.u8(1);
                shape.save_state(w);
            }
            TargetOp::AccelMatmul { m, k, n } => {
                w.u8(2);
                w.usize(*m);
                w.usize(*k);
                w.usize(*n);
            }
            TargetOp::Recv => w.u8(3),
            TargetOp::Send(msg) => {
                w.u8(4);
                w.bytes(msg);
            }
            TargetOp::Sleep(cycles) => {
                w.u8(5);
                w.u64(*cycles);
            }
            TargetOp::Halt => w.u8(6),
        }
    }

    /// Restores an operation.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<TargetOp, SnapError> {
        match r.u8()? {
            0 => Ok(TargetOp::CpuKernel(Kernel::restore_state(r)?)),
            1 => Ok(TargetOp::AccelConv(ConvShape::restore_state(r)?)),
            2 => Ok(TargetOp::AccelMatmul {
                m: r.usize()?,
                k: r.usize()?,
                n: r.usize()?,
            }),
            3 => Ok(TargetOp::Recv),
            4 => Ok(TargetOp::Send(r.bytes()?)),
            5 => Ok(TargetOp::Sleep(r.u64()?)),
            6 => Ok(TargetOp::Halt),
            tag => Err(SnapError::BadTag {
                context: "TargetOp",
                tag,
            }),
        }
    }
}

/// Execution context handed to the program at each decision point.
#[derive(Debug, Default)]
pub struct ProgContext {
    now: u64,
    inbox: Option<Vec<u8>>,
    rx_available: bool,
    rx_timed_out: bool,
}

impl ProgContext {
    /// Creates a context (used by the SoC executor).
    pub fn new(now: u64, inbox: Option<Vec<u8>>) -> ProgContext {
        ProgContext {
            now,
            inbox,
            rx_available: false,
            rx_timed_out: false,
        }
    }

    /// Sets the RX-queue status flag (builder style, used by the SoC).
    pub fn with_rx_available(mut self, available: bool) -> ProgContext {
        self.rx_available = available;
        self
    }

    /// Sets the RX-timeout flag (builder style, used by the SoC).
    pub fn with_rx_timed_out(mut self, timed_out: bool) -> ProgContext {
        self.rx_timed_out = timed_out;
        self
    }

    /// Current SoC cycle (the target's cycle counter CSR).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// True if the bridge RX queue has a message waiting (the status
    /// register a scheduler polls before committing to a blocking read).
    pub fn rx_available(&self) -> bool {
        self.rx_available
    }

    /// True when the SoC's bounded RX stall gave up on a blocked
    /// [`TargetOp::Recv`]: the expected message did not arrive within the
    /// configured window (a watchdog interrupt on the blocking read). A
    /// robust program treats this as a lost message and degrades instead
    /// of re-blocking; a program that re-issues the `Recv` simply re-arms
    /// the watchdog.
    pub fn rx_timed_out(&self) -> bool {
        self.rx_timed_out
    }

    /// Takes the message delivered by a completed [`TargetOp::Recv`].
    pub fn take_message(&mut self) -> Option<Vec<u8>> {
        self.inbox.take()
    }
}

/// An application that runs on the simulated SoC.
pub trait TargetProgram: Send {
    /// Returns the next operation. Called exactly once after each completed
    /// operation (and once at startup).
    fn next_op(&mut self, ctx: &mut ProgContext) -> TargetOp;

    /// A short name for logs and stats.
    fn name(&self) -> &str {
        "target-program"
    }

    /// Serializes the program's dynamic state for a mission snapshot.
    ///
    /// Stateless programs can rely on the default no-op. Stateful programs
    /// MUST override both this and [`TargetProgram::restore_state`]
    /// symmetrically, or resumed missions will diverge from straight runs.
    fn save_state(&self, _w: &mut SnapWriter) {}

    /// Restores the program's dynamic state from a mission snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed snapshot.
    fn restore_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

/// A canned program replaying a fixed op list (useful in tests/benches).
#[derive(Debug, Clone)]
pub struct ScriptedProgram {
    ops: std::vec::IntoIter<TargetOp>,
    received: Vec<Vec<u8>>,
}

impl ScriptedProgram {
    /// Creates a program that issues `ops` in order, then halts.
    pub fn new(ops: Vec<TargetOp>) -> ScriptedProgram {
        ScriptedProgram {
            ops: ops.into_iter(),
            received: Vec::new(),
        }
    }

    /// Messages captured by completed `Recv` ops.
    pub fn received(&self) -> &[Vec<u8>] {
        &self.received
    }
}

impl TargetProgram for ScriptedProgram {
    fn next_op(&mut self, ctx: &mut ProgContext) -> TargetOp {
        if let Some(msg) = ctx.take_message() {
            self.received.push(msg);
        }
        self.ops.next().unwrap_or(TargetOp::Halt)
    }

    fn name(&self) -> &str {
        "scripted"
    }

    fn save_state(&self, w: &mut SnapWriter) {
        let ScriptedProgram { ops, received } = self;
        w.seq(ops.as_slice(), |w, op| op.save_state(w));
        w.seq(received, |w, msg| w.bytes(msg));
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.ops = r.seq::<_, Vec<_>>(TargetOp::restore_state)?.into_iter();
        self.received = r.seq(SnapReader::bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_program_replays_then_halts() {
        let mut p = ScriptedProgram::new(vec![TargetOp::Sleep(5), TargetOp::Recv]);
        let mut ctx = ProgContext::new(0, None);
        assert_eq!(p.next_op(&mut ctx), TargetOp::Sleep(5));
        assert_eq!(p.next_op(&mut ctx), TargetOp::Recv);
        let mut ctx = ProgContext::new(10, Some(vec![1]));
        assert_eq!(p.next_op(&mut ctx), TargetOp::Halt);
        assert_eq!(p.received(), &[vec![1u8]]);
        // Halt forever.
        assert_eq!(p.next_op(&mut ProgContext::default()), TargetOp::Halt);
    }

    #[test]
    fn context_message_is_taken_once() {
        let mut ctx = ProgContext::new(3, Some(vec![7]));
        assert_eq!(ctx.now(), 3);
        assert_eq!(ctx.take_message(), Some(vec![7]));
        assert_eq!(ctx.take_message(), None);
    }
}
