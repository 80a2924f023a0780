//! Worker-panic propagation through the outline pool: a panic inside
//! one detection group's worker must surface as a typed
//! [`BuildError::OutlineWorker`] carrying the group index and the panic
//! payload — never abort the process or poison later builds.
//!
//! Fault injection goes through [`calibro::detect_fault`], a
//! process-global hook, so everything that reaches detection lives in
//! one test function to keep arm/disarm ordered.
//!
//! The same rule one layer down: malformed dex that would make a compile
//! worker panic is refused by the verifier with a typed
//! [`BuildError::Verify`] before any worker sees it.

use calibro::{build, detect_fault, BuildError, BuildOptions, LtboMode};
use calibro_dex::{DexFile, DexInsn, Method, MethodId, VerifyError};
use calibro_workloads::{generate, AppSpec};

#[test]
fn more_arguments_than_registers_is_a_verify_error_not_a_worker_panic() {
    // Codegen, the inliner and the evaluator all compute
    // `num_regs - num_args`; the build fails at verification, before
    // detection, so the fault the other test arms is never reached.
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 0);
    dex.add_method(Method {
        id: MethodId(0),
        class,
        name: "m".into(),
        num_regs: 1,
        num_args: 2,
        insns: vec![DexInsn::ReturnVoid],
        is_native: false,
    });
    for options in [BuildOptions::baseline(), BuildOptions::cto_ltbo()] {
        match build(&dex, &options) {
            Err(BuildError::Verify(error)) => assert_eq!(
                error,
                VerifyError::ArgsExceedRegisters { method: MethodId(0), num_args: 2, num_regs: 1 }
            ),
            Err(other) => panic!("expected a verify error, got: {other}"),
            Ok(_) => panic!("a method with more arguments than registers was compiled"),
        }
    }
}

#[test]
fn injected_detection_panic_surfaces_as_typed_error() {
    let app = generate(&AppSpec::small("outline-fault", 41));

    // The injected panic still runs the default hook (stack trace to
    // stderr); silence it for the duration of the expected faults.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // Global mode: one detection group, index 0.
    detect_fault::arm(0);
    let err = build(&app.dex, &BuildOptions::cto_ltbo()).expect_err("armed fault must fail");
    match &err {
        BuildError::OutlineWorker { group, message } => {
            assert_eq!(*group, 0);
            assert!(
                message.contains("injected detection fault in group 0"),
                "payload lost: {message}"
            );
        }
        other => panic!("expected OutlineWorker, got: {other}"),
    }
    assert!(err.to_string().contains("outline worker for group 0 panicked"));

    // Parallel mode: the fault hits one of several groups while the
    // others complete; the pool must still return the typed error, with
    // the faulted group's index, under a multi-threaded pool.
    let options = BuildOptions::cto_ltbo_parallel(8, 4);
    let faulted = 3usize;
    detect_fault::arm(faulted);
    let err = build(&app.dex, &options).expect_err("armed fault must fail in parallel mode");
    match &err {
        BuildError::OutlineWorker { group, message } => {
            assert_eq!(*group, faulted);
            assert!(message.contains(&format!("injected detection fault in group {faulted}")));
        }
        other => panic!("expected OutlineWorker, got: {other}"),
    }

    detect_fault::disarm();
    std::panic::set_hook(hook);

    // Disarmed, the same builds succeed: the fault never left the
    // process in a broken state.
    let global = build(&app.dex, &BuildOptions::cto_ltbo()).expect("clean global build");
    let parallel = build(&app.dex, &options).expect("clean parallel build");
    assert!(matches!(BuildOptions::cto_ltbo().ltbo, Some(LtboMode::Global)));
    assert!(global.stats.ltbo.outlined_functions > 0);
    assert_eq!(parallel.stats.ltbo.detection_groups, 8);
}
