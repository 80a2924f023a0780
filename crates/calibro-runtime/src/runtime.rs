//! The device runtime: loads an [`OatFile`](calibro_oat::OatFile),
//! builds the thread structure / `ArtMethod` table / statics area, and
//! invokes methods like ART would.

use std::collections::HashMap;

use calibro_codegen::layout;
use calibro_dex::MethodId;
use calibro_oat::{DictImage, OatFile};

use crate::machine::{addr, native_id, ExecOutcome, Machine, NativeMethod, Trap};
use crate::memory::RESIDENCY_GRANULE;

/// Environment the OAT file runs against (what the APK install provides:
/// class layouts, native libraries, initial statics).
#[derive(Clone, Debug, Default)]
pub struct RuntimeEnv {
    /// Instance sizes per class id (header included).
    pub class_sizes: Vec<u64>,
    /// Registered JNI implementations per method id.
    pub natives: HashMap<u32, NativeMethod>,
    /// Initial static field values.
    pub statics: Vec<i32>,
    /// Model the instruction cache in the cost model.
    pub icache: bool,
}

/// A loaded application instance.
pub struct Runtime {
    machine: Machine,
    text_base: u64,
    text_size: u64,
    num_methods: usize,
    num_statics: usize,
    entries: Vec<u64>,
}

/// A point-in-time copy of every architectural observable a Java program
/// can legitimately see — the comparison unit of the differential
/// conformance harness. Two builds of the same program are conformant
/// when they produce equal snapshots after replaying the same trace
/// (plus equal per-call [`ExecOutcome`]s). Cycle counts are excluded:
/// outlining changes them by design.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StateSnapshot {
    /// Every static field value, in slot order.
    pub statics: Vec<i32>,
    /// Objects allocated so far.
    pub heap_allocs: u64,
    /// Digest of heap contents + statics + allocation count (catches
    /// divergence in heap stores that statics alone would miss).
    pub digest: u64,
}

/// Outcome of one invocation, with its cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Invocation {
    /// How the call finished.
    pub outcome: ExecOutcome,
    /// Cycles consumed by this call.
    pub cycles: u64,
    /// Instructions executed by this call.
    pub steps: u64,
}

impl Runtime {
    /// Loads an OAT file into a fresh simulated device.
    #[must_use]
    pub fn new(oat: &OatFile, env: &RuntimeEnv) -> Runtime {
        Runtime::new_with_dict(oat, env, None)
    }

    /// Loads an OAT file plus a shared dictionary island. Calls into
    /// `[dict.base_address, dict.base_address + 4 * words.len())` execute
    /// from the island; without the mapping they trap, mirroring a tenant
    /// linked against a dictionary epoch the daemon no longer serves.
    #[must_use]
    pub fn new_with_dict(oat: &OatFile, env: &RuntimeEnv, dict: Option<&DictImage>) -> Runtime {
        let num_methods = oat.methods.len();
        // Per-word owner map for profiling attribution.
        let mut owner = vec![u32::MAX; oat.words.len()];
        for record in &oat.methods {
            let start = (record.offset / 4) as usize;
            for slot in owner.iter_mut().skip(start).take(record.code_words as usize) {
                *slot = record.method.0;
            }
        }
        let mut machine = Machine::new(
            &oat.words,
            oat.base_address,
            owner,
            num_methods,
            env.class_sizes.clone(),
            env.natives.clone(),
            env.icache,
        );
        if let Some(d) = dict {
            machine.map_extra_code(d.base_address, &d.words);
        }

        // --- Thread structure --------------------------------------------
        machine.mem.write_u64(
            addr::THREAD_BASE + u64::from(layout::THREAD_METHOD_TABLE),
            addr::METHOD_TABLE_BASE,
        );
        machine
            .mem
            .write_u64(addr::THREAD_BASE + u64::from(layout::THREAD_STATICS), addr::STATICS_BASE);
        let natives = [
            (layout::EP_ALLOC_OBJECT, native_id::ALLOC),
            (layout::EP_THROW_DIV_ZERO, native_id::THROW_DIV_ZERO),
            (layout::EP_THROW_NPE, native_id::THROW_NPE),
            (layout::EP_DELIVER_EXCEPTION, native_id::DELIVER),
            (layout::EP_NATIVE_BRIDGE, native_id::BRIDGE),
        ];
        for (slot, id) in natives {
            machine.mem.write_u64(addr::THREAD_BASE + u64::from(slot), addr::NATIVE_BASE + id * 8);
        }

        // --- ArtMethod records + method table ------------------------------
        let mut entries = Vec::with_capacity(num_methods);
        for record in &oat.methods {
            let idx = u64::from(record.method.0);
            let art_method = addr::ART_METHODS_BASE + idx * layout::ART_METHOD_SIZE;
            let entry = oat.base_address + record.offset;
            entries.push(entry);
            machine.mem.write_u64(art_method, idx);
            machine.mem.write_u64(art_method + u64::from(layout::ART_METHOD_ENTRY_OFFSET), entry);
            machine.mem.write_u64(addr::METHOD_TABLE_BASE + idx * 8, art_method);
        }

        // --- Statics -------------------------------------------------------
        for (slot, value) in env.statics.iter().enumerate() {
            machine.mem.write_u32(addr::STATICS_BASE + slot as u64 * 8, *value as u32);
        }

        machine.mem.reset_touched();
        Runtime {
            machine,
            text_base: oat.base_address,
            text_size: oat.text_size_bytes(),
            num_methods,
            num_statics: env.statics.len(),
            entries,
        }
    }

    /// Invokes a method with `args` (placed in `x1..`), running at most
    /// `max_steps` instructions.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on simulator-level failures, which indicate
    /// compilation/outlining bugs rather than Java exceptions.
    ///
    /// # Panics
    ///
    /// Panics if `method` is out of range or more than 8 arguments are
    /// passed.
    pub fn call(
        &mut self,
        method: MethodId,
        args: &[i32],
        max_steps: u64,
    ) -> Result<Invocation, Trap> {
        assert!(args.len() <= 8, "at most 8 arguments");
        let entry = self.entries[method.index()];
        let m = &mut self.machine;
        let cycles_before = m.cost.cycles;
        let steps_before = m.steps;
        m.set_sp(addr::STACK_BASE);
        m.set_pc(entry);
        m.set_reg(30, addr::RETURN_SENTINEL);
        m.set_reg(19, addr::THREAD_BASE);
        // The callee's own ArtMethod in x0, as ART's calling convention
        // provides (unused by generated code, but kept faithful).
        m.set_reg(0, addr::ART_METHODS_BASE + method.index() as u64 * layout::ART_METHOD_SIZE);
        for (i, a) in args.iter().enumerate() {
            m.set_reg(1 + i as u8, u64::from(*a as u32));
        }
        let outcome = m.run(max_steps)?;
        Ok(Invocation {
            outcome,
            cycles: m.cost.cycles - cycles_before,
            steps: m.steps - steps_before,
        })
    }

    /// Total cycles across all invocations so far.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.machine.cost.cycles
    }

    /// Cycles attributed per method (last slot: thunks/outlined/runtime).
    #[must_use]
    pub fn method_cycles(&self) -> &[u64] {
        &self.machine.method_cycles
    }

    /// Number of methods in the loaded OAT.
    #[must_use]
    pub fn num_methods(&self) -> usize {
        self.num_methods
    }

    /// Code residency touched so far (resident OAT text), in bytes.
    #[must_use]
    pub fn resident_code_bytes(&self) -> u64 {
        let granules =
            self.machine.mem.touched_granules_in(self.text_base, self.text_base + self.text_size);
        granules as u64 * RESIDENCY_GRANULE
    }

    /// All pages touched since load (code + heap + stack + runtime
    /// tables), in bytes — the raw residency number behind the Table 5
    /// memory-usage model.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.machine.mem.touched_granules_in(0, u64::MAX) as u64 * RESIDENCY_GRANULE
    }

    /// A digest of the observable mutable state (heap contents, statics
    /// and the allocation count), used by differential tests. Code layout
    /// and stack remnants are deliberately excluded — they legitimately
    /// differ between baseline and outlined builds.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let heap = self.machine.mem.digest_range(addr::HEAP_BASE, addr::HEAP_BASE + 0x1000_0000);
        let statics =
            self.machine.mem.digest_range(addr::STATICS_BASE, addr::STATICS_BASE + 0x10_0000);
        heap ^ statics.rotate_left(32) ^ self.machine.heap_allocs.rotate_left(17)
    }

    /// Objects allocated so far.
    #[must_use]
    pub fn heap_allocs(&self) -> u64 {
        self.machine.heap_allocs
    }

    /// Reads back a static slot (observability for tests).
    #[must_use]
    pub fn static_value(&self, slot: u32) -> i32 {
        self.machine.mem.read_u32(addr::STATICS_BASE + u64::from(slot) * 8) as i32
    }

    /// Instruction-cache misses so far.
    #[must_use]
    pub fn icache_misses(&self) -> u64 {
        self.machine.cost.icache_misses
    }

    /// Captures every architectural observable as a [`StateSnapshot`]
    /// (statics are read back for all slots the environment declared at
    /// load time).
    #[must_use]
    pub fn snapshot(&self) -> StateSnapshot {
        let statics = (0..self.num_statics as u32).map(|slot| self.static_value(slot)).collect();
        StateSnapshot { statics, heap_allocs: self.heap_allocs(), digest: self.state_digest() }
    }
}
