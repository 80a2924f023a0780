//! The DEX-like container: the compilation unit `dex2oat` consumes.

use std::sync::Arc;

use crate::ids::{ClassId, MethodId};
use crate::method::{Class, Method};

/// A container of classes and methods — the analogue of one `.dex` file
/// inside an APK.
///
/// Each method is its own shared allocation, so a clone shares every
/// method with the original until one side edits it through
/// [`method_mut`](Self::method_mut), and a method's allocation is an
/// identity a build can remember its key by.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DexFile {
    classes: Vec<Class>,
    methods: Vec<Arc<Method>>,
    /// Number of static field slots used by `SGet`/`SPut`.
    num_statics: u32,
}

impl DexFile {
    /// Creates an empty container.
    #[must_use]
    pub fn new() -> DexFile {
        DexFile::default()
    }

    /// Adds a class and returns its id.
    pub fn add_class(&mut self, name: impl Into<String>, num_fields: u32) -> ClassId {
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(Class { id, name: name.into(), num_fields, methods: Vec::new() });
        id
    }

    /// Adds a method and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `method.class` does not exist or if the embedded
    /// `method.id` does not match its table position.
    pub fn add_method(&mut self, mut method: Method) -> MethodId {
        let id = MethodId(self.methods.len() as u32);
        method.id = id;
        let class = method.class;
        self.classes
            .get_mut(class.index())
            .unwrap_or_else(|| panic!("method references missing class {class}"))
            .methods
            .push(id);
        self.methods.push(Arc::new(method));
        id
    }

    /// Reserves static field slots and returns the base slot index.
    pub fn reserve_statics(&mut self, count: u32) -> u32 {
        let base = self.num_statics;
        self.num_statics += count;
        base
    }

    /// Number of static slots in use.
    #[must_use]
    pub fn num_statics(&self) -> u32 {
        self.num_statics
    }

    /// Looks up a method.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// Looks up a class.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Looks up a method mutably (incremental-build harnesses edit
    /// method bodies to model an app update).
    ///
    /// Copy-on-write ([`Arc::make_mut`]): a method this file shares with
    /// a clone is copied first, so the clone keeps the old body, and a
    /// method some [`Weak`](std::sync::Weak) still names moves to a new
    /// allocation. Either way the edited method is a new allocation, and
    /// every method not edited stays the allocation it was.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn method_mut(&mut self, id: MethodId) -> &mut Method {
        Arc::make_mut(&mut self.methods[id.index()])
    }

    /// Replaces the method table with `methods`, in order: a method
    /// whose id is its new position keeps its allocation, and any other
    /// moves to a new one with its id set (copy-on-write, as in
    /// [`method_mut`](Self::method_mut)). Each class lists its methods
    /// again, in id order, as [`add_method`](Self::add_method) leaves
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if a method references a class that does not exist.
    pub fn set_methods(&mut self, mut methods: Vec<Arc<Method>>) {
        for class in &mut self.classes {
            class.methods.clear();
        }
        for (at, method) in methods.iter_mut().enumerate() {
            let id = MethodId(at as u32);
            if method.id != id {
                Arc::make_mut(method).id = id;
            }
            let class = method.class;
            self.classes
                .get_mut(class.index())
                .unwrap_or_else(|| panic!("method references missing class {class}"))
                .methods
                .push(id);
        }
        self.methods = methods;
    }

    /// All methods in id order.
    #[must_use]
    pub fn methods(&self) -> &[Arc<Method>] {
        &self.methods
    }

    /// All classes in id order.
    #[must_use]
    pub fn classes(&self) -> &[Class] {
        &self.classes
    }

    /// Total bytecode instruction count across all methods.
    #[must_use]
    pub fn total_insns(&self) -> usize {
        self.methods.iter().map(|m| m.insns.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::DexInsn;

    #[test]
    fn ids_are_stable_table_positions() {
        let mut dex = DexFile::new();
        let c = dex.add_class("Main", 2);
        let m = dex.add_method(Method {
            id: MethodId(999), // overwritten on insert
            class: c,
            name: "run".into(),
            num_regs: 1,
            num_args: 0,
            insns: vec![DexInsn::ReturnVoid],
            is_native: false,
        });
        assert_eq!(m, MethodId(0));
        assert_eq!(dex.method(m).id, m);
        assert_eq!(dex.class(c).methods, vec![m]);
        assert_eq!(dex.total_insns(), 1);
    }

    #[test]
    fn set_methods_keeps_the_allocations_already_in_place_and_relists_the_classes() {
        let mut dex = DexFile::new();
        let (a, b) = (dex.add_class("A", 0), dex.add_class("B", 0));
        for (class, name) in [(a, "x"), (b, "y"), (a, "z")] {
            let mut m = crate::MethodBuilder::new(name, 1, 0);
            m.push(DexInsn::ReturnVoid);
            dex.add_method(m.build(class));
        }
        let base = dex.clone();
        let mut methods = base.methods().to_vec();
        methods.swap(1, 2);
        methods.pop();
        dex.set_methods(methods);
        assert!(Arc::ptr_eq(&dex.methods()[0], &base.methods()[0]));
        // Moved: a new allocation with its id set; the base keeps its own.
        assert!(!Arc::ptr_eq(&dex.methods()[1], &base.methods()[2]));
        assert_eq!((dex.methods()[1].id, &*dex.methods()[1].name), (MethodId(1), "z"));
        assert_eq!(base.methods()[2].id, MethodId(2));
        assert_eq!(dex.class(a).methods, vec![MethodId(0), MethodId(1)]);
        assert!(dex.class(b).methods.is_empty());
    }

    #[test]
    fn statics_are_reserved_contiguously() {
        let mut dex = DexFile::new();
        assert_eq!(dex.reserve_statics(4), 0);
        assert_eq!(dex.reserve_statics(2), 4);
        assert_eq!(dex.num_statics(), 6);
    }

    #[test]
    #[should_panic(expected = "missing class")]
    fn method_requires_class() {
        let mut dex = DexFile::new();
        dex.add_method(Method {
            id: MethodId(0),
            class: ClassId(3),
            name: "x".into(),
            num_regs: 0,
            num_args: 0,
            insns: vec![],
            is_native: true,
        });
    }
}
