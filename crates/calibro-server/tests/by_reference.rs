//! Builds by reference and by edit end to end: a client names a program
//! it sent whole before instead of sending it again, or sends an edit
//! of it as the rows of the methods that changed; the daemon resolves
//! the name only to a program that connection sent, and every way the
//! daemon can fail to know it ends in a whole send the caller never
//! sees. Also the client's side of the trust boundary: replies that
//! answer no outstanding request are typed errors, not panics.

#![cfg(unix)]

use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use calibro::BuildOptions;
use calibro_dex::{wire, ClassId, DexFile, DexInsn, MethodId};
use calibro_server::proto::{
    read_frame, write_frame, BuildEditRequest, BuildHeader, BuildRequestRef, EditRow, ErrorReply,
    FrameEvent, ProgramId, REQ_BUILD, REQ_BUILD_BY_ID, REQ_BUILD_EDIT, REQ_PING, RESP_BUILT,
    RESP_ERROR, RESP_PONG,
};
use calibro_server::{
    BuildReply, Client, ClientError, Daemon, Listener, ServeError, ServerConfig, ServerStats,
};
use calibro_workloads::{generate, AppSpec};
use proptest::prelude::*;

static NEXT_SOCKET: AtomicU64 = AtomicU64::new(0);

fn temp_socket() -> PathBuf {
    let n = NEXT_SOCKET.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("calibrod-ref-{}-{n}.sock", std::process::id()))
}

fn start() -> (Daemon, PathBuf) {
    let socket = temp_socket();
    let daemon = Daemon::start(Listener::unix(&socket).expect("bind"), ServerConfig::default())
        .expect("start daemon");
    (daemon, socket)
}

fn direct(dex: &DexFile, options: &BuildOptions) -> Vec<u8> {
    calibro_oat::to_elf_bytes(&calibro::build(dex, options).expect("direct build").oat)
}

/// A build request for `dex` on the wire: whole, or naming its id.
fn request<'a>(
    request_id: u64,
    tenant: Option<&'a str>,
    dex: &'a DexFile,
    options: &'a BuildOptions,
) -> BuildRequestRef<'a> {
    BuildRequestRef {
        request_id,
        deadline: None,
        options_fp: calibro::options_fingerprint(options),
        ltbo_fp: calibro_server::ltbo_fingerprint(options),
        tenant,
        options,
        dex,
    }
}

fn id_of(dex: &DexFile) -> ProgramId {
    ProgramId::of(&wire::encode(dex))
}

/// One frame out, one build outcome back, on a raw connection.
fn exchange(raw: &mut UnixStream, kind: u8, body: &[u8]) -> Result<BuildReply, ErrorReply> {
    write_frame(raw, kind, body).expect("send");
    match read_frame(raw, 64 << 20).expect("read reply") {
        FrameEvent::Frame { kind: RESP_BUILT, body } => {
            Ok(BuildReply::decode(&body).expect("reply decodes"))
        }
        FrameEvent::Frame { kind: RESP_ERROR, body } => {
            Err(ErrorReply::decode(&body).expect("error decodes"))
        }
        other => panic!("expected a build outcome, got {other:?}"),
    }
}

fn still_serves(raw: &mut UnixStream) {
    write_frame(raw, REQ_PING, b"still-there").expect("send ping");
    match read_frame(raw, 1 << 20).expect("read pong") {
        FrameEvent::Frame { kind: RESP_PONG, body } => assert_eq!(body, b"still-there"),
        other => panic!("expected a pong, got {other:?}"),
    }
}

/// A reference resolves only on the connection that sent the program
/// whole, and only to a program the daemon holds: another connection's
/// id is `UnknownProgram` until that connection sends the program
/// itself. The by-reference reply is the whole-send reply, plain and as
/// a tenant fetch.
#[test]
fn a_reference_resolves_only_on_a_connection_that_sent_the_program_whole() {
    let app = generate(&AppSpec::small("named", 31));
    let options = BuildOptions::cto_ltbo();
    let expected = direct(&app.dex, &options);
    let (daemon, socket) = start();
    let id = id_of(&app.dex);

    // The first connection sends it whole twice: the daemon holds it.
    let mut first = UnixStream::connect(&socket).expect("connect");
    for request_id in 1..=2 {
        let reply = exchange(
            &mut first,
            REQ_BUILD,
            &request(request_id, None, &app.dex, &options).encode(),
        );
        assert_eq!(reply.expect("whole build").elf, expected);
    }

    // A second connection naming that id is refused, and keeps serving.
    let mut second = UnixStream::connect(&socket).expect("connect");
    let by_id = request(7, None, &app.dex, &options).encode_by_id(id);
    let refused = exchange(&mut second, REQ_BUILD_BY_ID, &by_id).expect_err("not its program");
    assert_eq!((refused.request_id, refused.error), (7, ServeError::UnknownProgram));
    still_serves(&mut second);
    // Once it has sent the program whole, its reference resolves.
    exchange(&mut second, REQ_BUILD, &request(8, None, &app.dex, &options).encode())
        .expect("whole build");
    let named = exchange(&mut second, REQ_BUILD_BY_ID, &by_id).expect("by reference");
    assert_eq!((named.request_id, &named.elf), (7, &expected));

    // On the first connection: the by-reference reply is the whole
    // reply, plain and under a tenant (the tenant's sealed generation).
    let whole = exchange(&mut first, REQ_BUILD, &request(3, None, &app.dex, &options).encode())
        .expect("whole build");
    let named = exchange(
        &mut first,
        REQ_BUILD_BY_ID,
        &request(4, None, &app.dex, &options).encode_by_id(id),
    )
    .expect("by reference");
    assert_eq!((named.elf, named.methods, named.generation), (whole.elf, whole.methods, 0));
    let sealed =
        exchange(&mut first, REQ_BUILD, &request(5, Some("t"), &app.dex, &options).encode())
            .expect("tenant registration");
    let fetched = exchange(
        &mut first,
        REQ_BUILD_BY_ID,
        &request(6, Some("t"), &app.dex, &options).encode_by_id(id),
    )
    .expect("tenant fetch by reference");
    assert_eq!((fetched.request_id, fetched.generation), (6, 1));
    assert_eq!((&fetched.elf, fetched.stats_json), (&sealed.elf, sealed.stats_json));
    assert_eq!(sealed.elf, expected);

    let stats = daemon.shutdown();
    assert_eq!(stats.programs_by_reference, 3);
    assert_eq!(stats.programs_decoded + stats.programs_reused, 5);
}

/// A by-reference frame whose id is cut short, or names a program of
/// the right key but the wrong length, is answered in type: `Malformed`
/// for the cut (the connection keeps serving), `UnknownProgram` for the
/// length.
#[test]
fn a_truncated_or_wrong_length_id_is_a_typed_error_and_the_connection_serves_on() {
    let app = generate(&AppSpec::small("cut", 33));
    let options = BuildOptions::cto();
    let (daemon, socket) = start();
    let mut raw = UnixStream::connect(&socket).expect("connect");
    for request_id in 1..=2 {
        exchange(&mut raw, REQ_BUILD, &request(request_id, None, &app.dex, &options).encode())
            .expect("whole build");
    }
    let id = id_of(&app.dex);
    let body = request(9, None, &app.dex, &options).encode_by_id(id);
    for cut in [1, 8, 16, 23] {
        let refused =
            exchange(&mut raw, REQ_BUILD_BY_ID, &body[..body.len() - cut]).expect_err("cut id");
        assert_eq!(refused.request_id, 9);
        assert!(matches!(refused.error, ServeError::Malformed { .. }), "{}", refused.error);
        still_serves(&mut raw);
    }
    let longer = ProgramId { len: id.len + 1, ..id };
    let refused = exchange(
        &mut raw,
        REQ_BUILD_BY_ID,
        &request(10, None, &app.dex, &options).encode_by_id(longer),
    )
    .expect_err("no such program");
    assert_eq!(refused.error, ServeError::UnknownProgram);
    let named = exchange(&mut raw, REQ_BUILD_BY_ID, &body).expect("the whole id still resolves");
    assert_eq!(named.elf, direct(&app.dex, &options));

    let stats = daemon.shutdown();
    assert_eq!((stats.malformed_frames, stats.programs_by_reference), (4, 1));
}

/// Forwards frames between one client connection and the daemon at
/// whatever socket `upstream` names when each request arrives: one
/// request, then its one reply. Pointing it at a new daemon is a daemon
/// restart that the client's connection survives.
fn proxy(upstream: Arc<Mutex<PathBuf>>) -> PathBuf {
    let socket = temp_socket();
    let listener = UnixListener::bind(&socket).expect("bind proxy");
    let path = socket.clone();
    std::thread::spawn(move || {
        let (mut client, _) = listener.accept().expect("accept");
        let _ = std::fs::remove_file(path);
        let mut daemon: Option<(PathBuf, UnixStream)> = None;
        while let Ok(FrameEvent::Frame { kind, body }) = read_frame(&mut client, 64 << 20) {
            let target = upstream.lock().expect("upstream").clone();
            if daemon.as_ref().is_none_or(|(path, _)| *path != target) {
                let stream = UnixStream::connect(&target).expect("connect upstream");
                daemon = Some((target, stream));
            }
            let (_, stream) = daemon.as_mut().expect("connected");
            write_frame(stream, kind, &body).expect("forward request");
            match read_frame(stream, 64 << 20).expect("read upstream") {
                FrameEvent::Frame { kind, body } => {
                    write_frame(&mut client, kind, &body).expect("forward reply");
                }
                other => panic!("upstream ended: {other:?}"),
            }
        }
    });
    socket
}

/// The daemon stops knowing a program the client names — it restarted
/// behind the client's connection — and the client's build still
/// succeeds with the same bytes: the reference is answered
/// `UnknownProgram` and the client sends the program whole, then names
/// it again from its third send to the new daemon.
#[test]
fn an_unknown_reference_after_a_daemon_restart_falls_back_to_a_whole_send() {
    let app = generate(&AppSpec::small("restarted", 35));
    let options = BuildOptions::cto_ltbo();
    let expected = direct(&app.dex, &options);
    let (before, socket) = start();
    let upstream = Arc::new(Mutex::new(socket));
    let mut client = Client::connect_unix(proxy(Arc::clone(&upstream))).expect("connect");
    for _ in 0..3 {
        assert_eq!(client.build(&app.dex, &options, None).expect("build").elf, expected);
    }
    let stats = before.shutdown();
    assert_eq!((stats.programs_decoded, stats.programs_by_reference), (2, 1));

    let (after, socket) = start();
    *upstream.lock().expect("upstream") = socket;
    for round in 0..3 {
        let reply = client.build_for_tenant("t", &app.dex, &options, None).expect("build");
        assert_eq!((reply.elf.as_slice(), reply.generation), (expected.as_slice(), 1), "{round}");
    }
    let stats = after.shutdown();
    // The refused reference, its whole resend, the second whole send,
    // then a reference that resolves.
    assert_eq!((stats.programs_decoded, stats.programs_by_reference), (2, 1));
    assert_eq!(stats.requests_completed, 3);
}

/// The client's record of what it sent, through every kind of edit: an
/// edited program is a new program, sent by edit of a named one or
/// whole, and named from its third whole send; an unedited one is named
/// from its third send. Every reply is the direct build of the program
/// as it stands.
#[derive(Clone, Debug)]
enum Step {
    /// Build program `k` as it stands.
    Build(usize),
    /// Edit program `k` where it lives.
    Edit(usize, u8),
    /// Clone program `k`, edit the clone, keep both.
    CloneEdit(usize, u8),
}

fn edit(dex: &mut DexFile, how: u8, n: usize) {
    match how % 4 {
        0 => {
            // `method_mut` moves the method to a new allocation even if
            // no literal flips.
            assert!(!calibro_workloads::mutate_methods(dex, n as u64, 0.2).is_empty());
        }
        1 => {
            let mut method = (*dex.methods()[n % dex.methods().len()]).clone();
            method.name = format!("added{n}");
            dex.add_method(method);
        }
        2 => {
            dex.add_class(format!("Extra{n}"), 2);
        }
        _ => {
            dex.reserve_statics(1 + n as u32 % 3);
        }
    }
}

/// Builds three times as often as each kind of edit.
fn step() -> impl Strategy<Value = Step> {
    (0u8..5, 0usize..8, any::<u8>()).prop_map(|(pick, k, how)| match pick {
        3 => Step::Edit(k, how),
        4 => Step::CloneEdit(k, how),
        _ => Step::Build(k),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_program_is_named_from_its_third_whole_send_and_every_reply_is_the_direct_build(
        seed in 0u64..1000,
        steps in proptest::collection::vec(step(), 4..14),
    ) {
        let options = BuildOptions::cto();
        let (daemon, socket) = start();
        let mut client = Client::connect_unix(&socket).expect("connect");
        let counts = |client: &mut Client| {
            let stats: ServerStats = client.server_stats().expect("stats");
            (stats.programs_by_reference, stats.programs_by_edit)
        };
        // Each program with the number of whole sends since it last
        // changed.
        let base = generate(&AppSpec { methods: 12, ..AppSpec::small("edits", seed) }).dex;
        let mut programs = vec![(base, 0usize)];
        for (n, step) in steps.into_iter().enumerate() {
            let k = match step {
                Step::Build(k) => k % programs.len(),
                Step::Edit(k, how) => {
                    let k = k % programs.len();
                    edit(&mut programs[k].0, how, n);
                    programs[k].1 = 0;
                    k
                }
                Step::CloneEdit(k, how) => {
                    let mut clone = programs[k % programs.len()].0.clone();
                    edit(&mut clone, how, n);
                    programs.push((clone, 0));
                    programs.len() - 1
                }
            };
            let before = counts(&mut client);
            let reply = client.build(&programs[k].0, &options, None).expect("build");
            prop_assert_eq!(&reply.elf, &direct(&programs[k].0, &options), "step {}", n);
            let after = counts(&mut client);
            let (named, edited) = (after.0 - before.0, after.1 - before.1);
            let whole_sends = &mut programs[k].1;
            prop_assert_eq!(named, u64::from(*whole_sends >= 2), "step {}: {:?}", n, step);
            prop_assert!(named + edited <= 1, "step {}", n);
            *whole_sends += usize::from(named + edited == 0);
        }
        daemon.shutdown();
    }
}

/// One change of an edit script, applied to a clone of the base.
#[derive(Clone, Debug)]
enum Change {
    /// Change method `k` where it stands.
    Modify(usize),
    /// Put a renamed copy of method `k` at position `at`.
    Insert(usize, usize),
    /// Remove method `k`.
    Delete(usize),
    /// Swap methods `k` and `at`.
    Reorder(usize, usize),
}

/// Modifies three times as often as it makes each other change: an
/// insert or a delete moves every method after it.
fn change() -> impl Strategy<Value = Change> {
    (0u8..6, any::<usize>(), any::<usize>()).prop_map(|(pick, k, at)| match pick {
        3 => Change::Insert(k, at),
        4 => Change::Delete(k),
        5 => Change::Reorder(k, at),
        _ => Change::Modify(k),
    })
}

/// Applies `change` as a client edits a program: in place through
/// `method_mut`, or by setting the method table anew, which keeps every
/// method that stays at its position the allocation it was.
fn apply(dex: &mut DexFile, change: &Change, n: usize) {
    let len = dex.methods().len();
    let mut methods = dex.methods().to_vec();
    match *change {
        Change::Modify(k) => {
            let method = dex.method_mut(MethodId((k % len) as u32));
            method.name.push('\'');
            if let Some(DexInsn::Const { value, .. }) =
                method.insns.iter_mut().find(|insn| matches!(insn, DexInsn::Const { .. }))
            {
                *value ^= 1;
            }
            return;
        }
        Change::Insert(k, at) => {
            let mut copy = (*methods[k % len]).clone();
            copy.name = format!("inserted{n}");
            methods.insert(at % (len + 1), Arc::new(copy));
        }
        Change::Delete(k) if len > 1 => drop(methods.remove(k % len)),
        Change::Delete(_) => {}
        Change::Reorder(k, at) => methods.swap(k % len, at % len),
    }
    dex.set_methods(methods);
}

/// The `methods_keyed` a build reply's stats report.
fn methods_keyed(reply: &BuildReply) -> u64 {
    let at = reply.stats_json.find(r#""methods_keyed":"#).expect("the stats name methods_keyed");
    let digits = &reply.stats_json[at + r#""methods_keyed":"#.len()..];
    let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap_or(digits.len());
    digits[..end].parse().expect("a count")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random insert, delete, modify and reorder scripts over a named
    /// program: the client sends each edited program by edit exactly
    /// when at least half its methods are the base's allocations at the
    /// same positions, the answer is the whole send's (a reply, or the
    /// same typed error for a program a reorder left unverifiable), and
    /// a build by edit keys no more methods than it sent rows for.
    #[test]
    fn an_edit_is_answered_as_its_whole_send_and_keys_only_its_rows(
        seed in 0u64..1000,
        scripts in proptest::collection::vec(proptest::collection::vec(change(), 1..4), 1..5),
    ) {
        let options = BuildOptions::cto();
        let (daemon, socket) = start();
        let base = generate(&AppSpec { methods: 16, ..AppSpec::small("script", seed) }).dex;
        let mut client = Client::connect_unix(&socket).expect("connect");
        for _ in 0..2 {
            client.build(&base, &options, None).expect("whole build");
        }
        let mut whole = UnixStream::connect(&socket).expect("connect");
        for (n, script) in scripts.iter().enumerate() {
            let mut edited = base.clone();
            for change in script {
                apply(&mut edited, change, n);
            }
            let methods = edited.methods().len();
            let rows = (0..methods)
                .filter(|&m| base.methods().get(m).is_none_or(|b| !Arc::ptr_eq(b, &edited.methods()[m])))
                .count();
            let by_edit = 2 * (methods - rows) >= methods;
            let before = client.server_stats().expect("stats").programs_by_edit;
            let answer = client.build(&edited, &options, None);
            let edits = client.server_stats().expect("stats").programs_by_edit - before;
            prop_assert_eq!(edits, u64::from(by_edit), "script {}: {:?}", n, script);
            let request_id = 1000 + n as u64;
            let sent_whole =
                exchange(&mut whole, REQ_BUILD, &request(request_id, None, &edited, &options).encode());
            match (answer, sent_whole) {
                (Ok(answer), Ok(sent_whole)) => {
                    prop_assert_eq!(&answer.elf, &sent_whole.elf, "script {}: {:?}", n, script);
                    prop_assert_eq!(answer.methods, sent_whole.methods);
                    if by_edit {
                        prop_assert!(methods_keyed(&answer) <= rows as u64, "script {}", n);
                    }
                }
                (Err(ClientError::Server(error)), Err(sent_whole)) => {
                    prop_assert_eq!(error, sent_whole.error, "script {}: {:?}", n, script);
                }
                (answer, sent_whole) => {
                    prop_assert!(false, "script {}: {:?} against {:?}", n, answer, sent_whole);
                }
            }
        }
        daemon.shutdown();
    }
}

/// An edit request of the program `dex` on the wire.
fn edit_request(
    request_id: u64,
    tenant: Option<&str>,
    dex: &DexFile,
    options: &BuildOptions,
    count: u32,
    rows: Vec<EditRow>,
) -> Vec<u8> {
    let header = BuildHeader {
        request_id,
        deadline: None,
        options_fp: calibro::options_fingerprint(options),
        ltbo_fp: calibro_server::ltbo_fingerprint(options),
        tenant: tenant.map(str::to_owned),
        options: options.clone(),
    };
    BuildEditRequest { header, base: id_of(dex), count, rows }.encode()
}

/// Method `m` of `dex` as the row for position `index`.
fn row(dex: &DexFile, m: usize, index: u32) -> EditRow {
    EditRow { index, method: (*dex.methods()[m]).clone() }
}

/// Edits whose rows make no program of the base, and an edit that names
/// a tenant, are each a typed `Malformed`, counted, and the connection
/// serves on; the well-formed edit after them is answered as the direct
/// build of the program it makes.
#[test]
fn malformed_edits_are_typed_errors_and_the_connection_serves_on() {
    let app = generate(&AppSpec { methods: 12, ..AppSpec::small("malformed-edit", 39) });
    let options = BuildOptions::cto();
    let (daemon, socket) = start();
    let mut raw = UnixStream::connect(&socket).expect("connect");
    for request_id in 1..=2 {
        exchange(&mut raw, REQ_BUILD, &request(request_id, None, &app.dex, &options).encode())
            .expect("whole build");
    }
    let n = app.dex.methods().len() as u32;
    let mut foreign = row(&app.dex, 0, 0);
    foreign.method.class = ClassId(app.dex.classes().len() as u32);
    let malformed: [(&str, Option<&str>, u32, Vec<EditRow>); 6] = [
        ("an index at the count", None, n, vec![row(&app.dex, 1, n)]),
        ("unsorted", None, n, vec![row(&app.dex, 3, 3), row(&app.dex, 1, 1)]),
        ("a duplicate", None, n, vec![row(&app.dex, 2, 2), row(&app.dex, 2, 2)]),
        ("a gap past the base", None, n + 2, vec![row(&app.dex, 0, n + 1)]),
        ("a class out of range", None, n, vec![foreign]),
        ("a tenant", Some("t"), n, vec![row(&app.dex, 1, 1)]),
    ];
    for (i, (what, tenant, count, rows)) in malformed.into_iter().enumerate() {
        let request_id = 10 + i as u64;
        let body = edit_request(request_id, tenant, &app.dex, &options, count, rows);
        let refused = exchange(&mut raw, REQ_BUILD_EDIT, &body).expect_err(what);
        assert_eq!(refused.request_id, request_id, "{what}");
        assert!(matches!(refused.error, ServeError::Malformed { .. }), "{what}: {}", refused.error);
        still_serves(&mut raw);
    }

    // Method 1 moved to the end, a copy of method 0 in its place.
    let mut edited = app.dex.clone();
    let mut methods = edited.methods().to_vec();
    methods.push(Arc::clone(&methods[1]));
    methods[1] = Arc::clone(&methods[0]);
    edited.set_methods(methods);
    let rows = vec![row(&edited, 1, 1), row(&edited, n as usize, n)];
    let body = edit_request(20, None, &app.dex, &options, n + 1, rows);
    let built = exchange(&mut raw, REQ_BUILD_EDIT, &body).expect("a well-formed edit");
    assert_eq!((built.request_id, &built.elf), (20, &direct(&edited, &options)));

    let stats = daemon.shutdown();
    assert_eq!((stats.malformed_frames, stats.programs_by_edit), (6, 1));
    assert_eq!(stats.programs_decoded + stats.programs_reused, 2);
}

/// An edit of a program this connection never sent whole, or of one the
/// daemon no longer holds (it restarted behind the client's connection),
/// is `UnknownProgram`; the client then sends the edited program whole,
/// and its caller gets the reply of that whole send.
#[test]
fn an_edit_of_an_unknown_base_falls_back_to_a_whole_send() {
    let app = generate(&AppSpec { methods: 20, ..AppSpec::small("unknown-base", 41) });
    let options = BuildOptions::cto_ltbo();
    let mut edited = app.dex.clone();
    assert!(!calibro_workloads::mutate_methods(&mut edited, 3, 0.05).is_empty());
    let expected = direct(&edited, &options);

    let (before, socket) = start();
    let mut other = UnixStream::connect(&socket).expect("connect");
    let body = edit_request(5, None, &app.dex, &options, 20, vec![row(&edited, 0, 0)]);
    let refused = exchange(&mut other, REQ_BUILD_EDIT, &body).expect_err("not its program");
    assert_eq!((refused.request_id, refused.error), (5, ServeError::UnknownProgram));
    still_serves(&mut other);

    let upstream = Arc::new(Mutex::new(socket));
    let mut client = Client::connect_unix(proxy(Arc::clone(&upstream))).expect("connect");
    for _ in 0..2 {
        client.build(&app.dex, &options, None).expect("whole build");
    }
    assert_eq!(client.build(&edited, &options, None).expect("by edit").elf, expected);
    let stats = before.shutdown();
    assert_eq!((stats.programs_decoded, stats.programs_by_edit), (2, 1));

    let (after, socket) = start();
    *upstream.lock().expect("upstream") = socket;
    assert_eq!(client.build(&edited, &options, None).expect("whole again").elf, expected);
    let stats = after.shutdown();
    // The refused edit, then the edited program whole.
    assert_eq!((stats.programs_decoded, stats.programs_by_edit), (1, 0));
    assert_eq!(stats.requests_completed, 1);
}

/// A build by edit names its base, not the program it builds: with the
/// base's replay slot full, the edit is built and equals the direct
/// build of the edited program, and the base's slot still answers the
/// base.
#[test]
fn an_edit_of_a_base_whose_replay_slot_is_full_is_built() {
    let app = generate(&AppSpec { methods: 20, ..AppSpec::small("full-slot", 43) });
    let options = BuildOptions::cto_ltbo();
    let expected = direct(&app.dex, &options);
    let (daemon, socket) = start();
    let mut client = Client::connect_unix(&socket).expect("connect");
    let counts = |client: &mut Client| {
        let stats = client.server_stats().expect("stats");
        (stats.requests_admitted, stats.builds_replayed, stats.programs_by_edit)
    };
    for _ in 0..3 {
        assert_eq!(client.build(&app.dex, &options, None).expect("build").elf, expected);
    }
    assert_eq!(counts(&mut client), (2, 1, 0), "the third send is replayed");

    let mut edited = app.dex.clone();
    assert!(!calibro_workloads::mutate_methods(&mut edited, 3, 0.05).is_empty());
    let reply = client.build(&edited, &options, None).expect("by edit");
    assert_eq!(reply.elf, direct(&edited, &options));
    assert_eq!(counts(&mut client), (3, 1, 1), "the edit is built");
    let base = client.build(&app.dex, &options, None).expect("the base again");
    assert_eq!(base.elf, expected);
    assert_eq!(counts(&mut client), (3, 2, 1), "the base's slot still holds the base");
    daemon.shutdown();
}

/// A scripted daemon: answers each build request it reads by
/// `answer(request ids so far)`, returning the frames to send.
fn fake_daemon(
    requests: usize,
    answer: impl FnOnce(&[u64]) -> Vec<(u8, Vec<u8>)> + Send + 'static,
) -> PathBuf {
    let socket = temp_socket();
    let listener = UnixListener::bind(&socket).expect("bind fake daemon");
    let path = socket.clone();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let _ = std::fs::remove_file(path);
        let mut ids = Vec::new();
        while ids.len() < requests {
            match read_frame(&mut stream, 64 << 20) {
                Ok(FrameEvent::Frame { body, .. }) => {
                    ids.push(u64::from_le_bytes(body[..8].try_into().expect("an id")));
                }
                _ => return,
            }
        }
        for (kind, body) in answer(&ids) {
            if write_frame(&mut stream, kind, &body).is_err() {
                return;
            }
        }
        // Hold the connection open until the client hangs up.
        let _ = read_frame(&mut stream, 64 << 20);
    });
    socket
}

fn built(request_id: u64) -> (u8, Vec<u8>) {
    let reply = BuildReply {
        request_id,
        options_fp: calibro::CacheKey { hi: 0, lo: 0 },
        ltbo_fp: None,
        elf: vec![1, 2, 3],
        methods: 1,
        methods_from_cache: 0,
        cache_hits: 0,
        cache_misses: 0,
        build_us: 1,
        generation: 0,
        stats_json: "{}".to_owned(),
    };
    (RESP_BUILT, reply.encode())
}

/// A reply that answers no outstanding request — a foreign id, or an id
/// already answered — is a typed `StrayReply`, on both build paths,
/// never a panic, and never a wait for a reply that will not come (a
/// watchdog fails the test instead of hanging it).
#[test]
fn a_stray_reply_id_is_a_typed_client_error() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        stray_replies();
        let _ = done.send(());
    });
    finished.recv_timeout(std::time::Duration::from_secs(60)).expect("hung, or panicked");
}

fn stray_replies() {
    let dex = generate(&AppSpec::small("stray", 37)).dex;
    let options = BuildOptions::cto();

    let socket = fake_daemon(1, |ids| vec![built(ids[0] + 100)]);
    let mut client = Client::connect_unix(&socket).expect("connect");
    match client.build(&dex, &options, None) {
        Err(ClientError::StrayReply { request_id }) => assert_eq!(request_id, 101),
        other => panic!("expected a stray reply, got {other:?}"),
    }

    let socket = fake_daemon(1, |ids| {
        let error = ErrorReply { request_id: ids[0] + 7, error: ServeError::Draining };
        vec![(RESP_ERROR, error.encode())]
    });
    let mut client = Client::connect_unix(&socket).expect("connect");
    match client.build_for_tenant("t", &dex, &options, None) {
        Err(ClientError::StrayReply { request_id }) => assert_eq!(request_id, 8),
        other => panic!("expected a stray reply, got {other:?}"),
    }

    let other = generate(&AppSpec::small("stray-2", 38)).dex;
    for duplicate in [false, true] {
        let socket = fake_daemon(2, move |ids| {
            let second = if duplicate { ids[0] } else { 999 };
            vec![built(ids[0]), built(second)]
        });
        let mut client = Client::connect_unix(&socket).expect("connect");
        let mut requests = [(&dex, &options), (&other, &options)].into_iter();
        match client.build_pipelined(&mut requests) {
            Err(ClientError::StrayReply { request_id }) => {
                assert_eq!(request_id, if duplicate { 1 } else { 999 });
            }
            other => panic!("expected a stray reply, got {other:?}"),
        }
    }
}
