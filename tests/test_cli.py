import hashlib
import hmac
import io
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshare import cli
from groupshare.cli import _bundle_mac, _manifest_header, _read_manifest, main
from groupshare.freegroup import parse_word
from groupshare.smallcancel import (
    check_small_cancellation,
    dehn_is_trivial,
    parse_presentation,
    random_platform_group,
    serialize_presentation,
)
from groupshare.tietze import expand_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tree_bytes(root: Path):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# gen-group

def test_gen_group_writes_verified_presentation(tmp_path, capsys):
    out = tmp_path / "g.grp"
    code, stdout, _ = run(capsys, "gen-group", "--seed", "3", "--out", str(out))
    assert code == 0
    assert "satisfied True" in stdout
    p = parse_presentation(out.read_text())
    assert check_small_cancellation(p, "1/6").satisfied
    assert all(len(r) == 40 for r in p.relators)


def test_gen_group_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.grp", tmp_path / "b.grp"
    code1, out1, _ = run(capsys, "gen-group", "--seed", "8", "--out", str(a))
    code2, out2, _ = run(capsys, "gen-group", "--seed", "8", "--out", str(b))
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    assert out1.replace(str(a), "") == out2.replace(str(b), "")


def test_gen_group_short_length_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "gen-group", "--length", "6", "--out", str(tmp_path / "x"))
    assert code == 1 and "usage error" in err


def test_gen_group_impossible_parameters_exhaust_budget(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen-group", "--rank", "1", "--relators", "2", "--length", "8",
        "--out", str(tmp_path / "x"),
    )
    assert code == 3 and "attempts" in err


def test_main_runs_the_handler_the_module_holds_now(tmp_path, capsys, monkeypatch):
    # the parser outlives a call, so it must name its handlers, not hold them:
    # a handler replaced on the module after the first call is the one that runs
    session = str(tmp_path / "s")
    run(capsys, "deal", "--mode", "nn", "--secret", "ab", "--n", "2", "--session-dir", session)
    assert run(capsys, "recover", "--session-dir", session, "--participants", "1,2")[:2] == (0, "ab\n")
    seen = []
    monkeypatch.setattr(cli, "cmd_recover", seen.append)
    assert run(capsys, "recover", "--session-dir", session, "--participants", "2,1")[:2] == (0, "")
    assert [args.participants for args in seen] == ["2,1"]


def test_calls_in_a_row_share_no_parsed_state(capsys, monkeypatch):
    # each call parses as a parser built for it alone would, options left
    # out of a later call included, even after a call that failed to parse
    seen = []
    for name in ("cmd_gen_group", "cmd_deal", "cmd_recover", "cmd_tietze_break", "cmd_inspect"):
        monkeypatch.setattr(cli, name, seen.append)
    calls = [
        ["deal", "--mode", "tn", "--secret", "5", "--n", "3", "--t", "2", "--p", "11",
         "--rank", "4", "--seed", "9", "--session-dir", "a"],
        ["deal", "--mode", "nn", "--secret", "ab", "--n", "2", "--session-dir", "b"],
        ["recover", "--session-dir", "b", "--participants", "1,2", "--secure-sum", "--seed", "3"],
        ["recover", "--session-dir", "b", "--participants", "1"],
        ["inspect", "--in", "g", "--word", "x1"],
        ["inspect", "--bogus"],
        ["inspect", "--in", "g"],
        ["gen-group", "--out", "g", "--lambda", "1/7"],
        ["tietze-break", "--in", "g", "--out", "h"],
        ["gen-group", "--out", "g"],
    ]
    fresh = [cli._build_parser.__wrapped__() for _ in calls]
    expected = []
    for argv, parser in zip(calls, fresh):
        code, _, _ = run(capsys, *argv)
        if code == 0:
            expected.append(vars(parser.parse_args(argv)))
    assert [vars(args) for args in seen] == expected
    assert len(expected) == len(calls) - 1
    assert len({id(args) for args in seen}) == len(seen)


def test_unknown_flags_are_usage_errors(capsys):
    assert run(capsys, "gen-group", "--bogus")[0] == 1
    assert run(capsys, "recover", "--session-dir", "x")[0] == 1


GROUP_COMMANDS = {
    "gen-group": ["gen-group", "--out"],
    "deal": ["deal", "--mode", "nn", "--secret", "ab", "--n", "2", "--session-dir"],
}


@pytest.mark.parametrize("bad", [("--rank", "0"), ("--relators", "0"), ("--length", "6")])
@pytest.mark.parametrize("command", sorted(GROUP_COMMANDS))
def test_group_options_are_usage_errors_in_every_command(tmp_path, capsys, command, bad):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *GROUP_COMMANDS[command], str(out), *bad)
    assert code == 1 and stdout == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# nn sessions

def test_nn_deal_recover_round_trip(tmp_path, capsys):
    session = tmp_path / "s"
    code, _, _ = run(
        capsys, "deal", "--mode", "nn", "--secret", "deadbeef", "--n", "4",
        "--seed", "5", "--session-dir", str(session),
    )
    assert code == 0
    manifest = (session / "manifest").read_text()
    assert "mode nn" in manifest and "n 4" in manifest and "k 32" in manifest
    assert sorted(p.name for p in (session / "secure").iterdir()) == [
        f"participant-{j}.grp" for j in range(1, 5)
    ]
    code, out, _ = run(capsys, "recover", "--session-dir", str(session),
                       "--participants", "1,2,3,4")
    assert code == 0 and out.strip() == "deadbeef"


def test_nn_recover_requires_everyone(tmp_path, capsys):
    session = tmp_path / "s"
    run(capsys, "deal", "--mode", "nn", "--secret", "0f", "--n", "3",
        "--seed", "6", "--session-dir", str(session))
    code, _, err = run(capsys, "recover", "--session-dir", str(session),
                       "--participants", "1,3")
    assert code == 2 and "insufficient shares" in err


def test_nn_deal_is_deterministic(tmp_path, capsys):
    args = ["deal", "--mode", "nn", "--secret", "abcd", "--n", "2", "--seed", "9"]
    run(capsys, *args, "--session-dir", str(tmp_path / "one"))
    run(capsys, *args, "--session-dir", str(tmp_path / "two"))
    assert tree_bytes(tmp_path / "one") == tree_bytes(tmp_path / "two")


# SHA-256 of whole session trees (secure/, open/, manifest, transcripts/)
# after a seeded deal and a secure-sum recovery.  Same-run determinism is
# tested above; these digests pin the bytes that --seed gives from one
# version to the next.
PINNED_SESSIONS = {
    "nn": (
        ["--mode", "nn", "--secret", "c0ffee", "--n", "3", "--seed", "7"],
        "1,2,3",
        "31927381f84126fe36a1a00e6bd4a5a35ddbad52037ccd95808b4fc4d98af38d",
    ),
    "tn": (
        ["--mode", "tn", "--secret", "4242", "--n", "5", "--t", "3", "--p", "8191",
         "--seed", "7"],
        "1,3,5",
        "485d875c000e575b9dff828afedde3a2a38fdeff1ea32090e2c27e49add471e9",
    ),
}


@pytest.mark.parametrize("mode", sorted(PINNED_SESSIONS))
def test_seeded_session_bytes_are_pinned(tmp_path, capsys, mode):
    deal, participants, digest = PINNED_SESSIONS[mode]
    session = tmp_path / "s"
    assert run(capsys, "deal", *deal, "--session-dir", str(session))[0] == 0
    assert run(capsys, "recover", "--session-dir", str(session),
               "--participants", participants, "--secure-sum")[0] == 0
    files = tree_bytes(session)
    assert {name.split("/")[0] for name in files} == {"secure", "open", "manifest",
                                                      "transcripts"}
    h = hashlib.sha256()
    for name, data in files.items():
        h.update(f"{name}\0{len(data)}\0".encode() + data)
    assert h.hexdigest() == digest


def test_nn_secure_sum_recovery_writes_transcript(tmp_path, capsys):
    session = tmp_path / "s"
    run(capsys, "deal", "--mode", "nn", "--secret", "c0ffee", "--n", "3",
        "--seed", "7", "--session-dir", str(session))
    code, out, _ = run(capsys, "recover", "--session-dir", str(session),
                       "--participants", "1,2,3", "--secure-sum")
    assert code == 0 and out.strip() == "c0ffee"
    log = session / "transcripts" / "recover-1-2-3.log"
    assert log.exists()
    assert log.read_text().startswith("round 1 1->2 ")


def test_manifest_does_not_reveal_the_seed(tmp_path, capsys):
    session = tmp_path / "s"
    run(capsys, "deal", "--mode", "nn", "--secret", "ab", "--n", "2",
        "--seed", "1", "--session-dir", str(session))
    manifest = (session / "manifest").read_text()
    assert hashlib.sha256(b"1").hexdigest() not in manifest
    assert "seed" not in manifest


def _replace_presentation(session: Path) -> None:
    (session / "secure" / "participant-2.grp").write_text("generators 3\n")


def _copy_presentation(session: Path) -> None:
    secure = session / "secure"
    shutil.copy(secure / "participant-3.grp", secure / "participant-2.grp")


def _flip_bundle_letter(session: Path) -> None:
    bundle = session / "open" / "bundle-2.txt"
    text = bundle.read_text()
    assert " x1 " in text
    bundle.write_text(text.replace(" x1 ", " x2 ", 1))


@pytest.mark.parametrize("tamper", [_replace_presentation, _copy_presentation, _flip_bundle_letter])
def test_recover_rejects_files_that_miss_their_digest(tmp_path, capsys, tamper):
    session = tmp_path / "s"
    run(capsys, "deal", "--mode", "nn", "--secret", "c0ffee", "--n", "3",
        "--seed", "6", "--session-dir", str(session))
    tamper(session)
    code, out, err = run(capsys, "recover", "--session-dir", str(session),
                         "--participants", "1,2,3")
    assert code == 2 and out == ""
    assert err.startswith("error: MAC check failed for participant 2: ")


def _commit_mac(session: Path, j: int) -> None:
    """Rewrite the MAC of participant ``j`` to match the files, as only a
    holder of participant j's secure presentation can."""
    manifest = session / "manifest"
    mac = _bundle_mac(
        (session / "secure" / f"participant-{j}.grp").read_bytes(),
        _manifest_header(_read_manifest(session)),
        (session / "open" / f"bundle-{j}.txt").read_bytes(),
    )
    manifest.write_text(_set_value(f"hmac-sha256:participant-{j}", mac)(manifest.read_text()))


def test_recover_rejects_mac_forged_from_a_presentation_digest(tmp_path, capsys):
    # HMAC hashes a key longer than a block, so a MAC keyed by the bare
    # presentation text could be forged from its SHA-256, which earlier
    # manifests published: a forged bundle then recovered as 40ffee, exit 0
    session = tmp_path / "s"
    run(capsys, "deal", "--mode", "nn", "--secret", "c0ffee", "--n", "3",
        "--seed", "6", "--session-dir", str(session))
    presentation = (session / "secure" / "participant-2.grp").read_bytes()
    digest = hashlib.sha256(presentation).digest()
    assert digest.hex() not in (session / "manifest").read_text()
    _flip_bundle_letter(session)
    bundle = (session / "open" / "bundle-2.txt").read_bytes()
    header = hashlib.sha256(_manifest_header(_read_manifest(session)).encode()).digest()
    for message in (bundle, header + bundle):
        forged = hmac.new(digest, message, hashlib.sha256).hexdigest()
        manifest = session / "manifest"
        manifest.write_text(_set_value("hmac-sha256:participant-2", forged)(manifest.read_text()))
        code, out, err = run(capsys, "recover", "--session-dir", str(session),
                             "--participants", "1,2,3")
        assert code == 2 and out == ""
        assert err.startswith("error: MAC check failed for participant 2: ")


def test_deal_refuses_lambda_above_one_sixth(tmp_path, capsys):
    # with --lambda 1/2 this session used to recover as c07be6c0ffeec0ffee, exit 0
    session = tmp_path / "s"
    code, out, err = run(capsys, "deal", "--mode", "nn", "--secret", "c0ffeec0ffeec0ffee",
                         "--n", "3", "--rank", "2", "--length", "10", "--lambda", "1/2",
                         "--seed", "1", "--session-dir", str(session))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "--lambda must be at most 1/6" in err
    assert not session.exists()
    code, out, err = run(capsys, "recover", "--session-dir", str(session),
                         "--participants", "1,2,3")
    assert code == 2 and out == ""


def _loose_presentation(tmp_path: Path, capsys) -> str:
    loose = tmp_path / "loose.grp"
    code, out, _ = run(capsys, "gen-group", "--rank", "3", "--length", "10", "--lambda", "1/2",
                       "--seed", "1", "--out", str(loose))
    assert code == 0 and "satisfied True" in out
    text = loose.read_text()
    assert not check_small_cancellation(parse_presentation(text), "1/6").satisfied
    return text


@pytest.mark.parametrize("loose, message", [
    (False, "secure/participant-2.grp has no relators"),
    (True, "secure/participant-2.grp does not satisfy C'(1/6)"),
])
def test_recover_refuses_presentations_dehn_cannot_decide(tmp_path, capsys, loose, message):
    session = tmp_path / "s"
    run(capsys, "deal", "--mode", "nn", "--secret", "c0ffee", "--n", "3",
        "--seed", "6", "--session-dir", str(session))
    text = _loose_presentation(tmp_path, capsys) if loose else "generators 3\n"
    (session / "secure" / "participant-2.grp").write_text(text)
    _commit_mac(session, 2)
    code, out, err = run(capsys, "recover", "--session-dir", str(session),
                         "--participants", "1,2,3")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {message}")


# int() also takes a 0x prefix, digit-group underscores, a sign, surrounding
# blanks and non-ASCII digits: "0x1f" used to deal and recover as 001f
@pytest.mark.parametrize("secret", ["zz", "0x1f", "f_f", "+f", " ff", "\u0663f", ""])
def test_nn_secret_must_be_hex(tmp_path, capsys, secret):
    session = tmp_path / "s"
    code, out, err = run(capsys, "deal", "--mode", "nn", "--secret", secret, "--n", "2",
                         "--seed", "1", "--session-dir", str(session))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: nn secret must be hex")
    assert not session.exists()


@pytest.mark.parametrize("secret", ["4_2", "+42", " 42", "0x2a", "4\u0662", ""])
def test_tn_secret_must_be_decimal(tmp_path, capsys, secret):
    session = tmp_path / "s"
    code, out, err = run(capsys, "deal", "--mode", "tn", "--secret", secret, "--n", "3",
                         "--t", "2", "--p", "8191", "--seed", "1",
                         "--session-dir", str(session))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: tn secret must be decimal")
    assert not session.exists()


@pytest.mark.parametrize("lam", ["1/0", "abc"])
@pytest.mark.parametrize("command", ["gen-group", "deal"])
def test_bad_lambda_is_one_line_data_error(tmp_path, capsys, command, lam):
    target = tmp_path / "out"
    if command == "gen-group":
        argv = ["gen-group", "--lambda", lam, "--out", str(target)]
    else:
        argv = ["deal", "--mode", "nn", "--secret", "ab", "--n", "3", "--lambda", lam,
                "--session-dir", str(target)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: --lambda must be a fraction such as 1/6, got {lam!r}\n"
    assert not target.exists()


# ---------------------------------------------------------------------------
# tn sessions

@pytest.fixture(scope="module")
def tn_session(tmp_path_factory):
    session = tmp_path_factory.mktemp("tn") / "s"
    code = main([
        "deal", "--mode", "tn", "--secret", "4242", "--n", "5", "--t", "3",
        "--p", "8191", "--seed", "12", "--session-dir", str(session),
    ])
    assert code == 0
    return session


def test_tn_any_threshold_subset_recovers(tn_session, capsys):
    for parts in ("1,2,3", "1,4,5", "2,3,5", "1,2,3,4,5"):
        code, out, _ = run(capsys, "recover", "--session-dir", str(tn_session),
                           "--participants", parts)
        assert code == 0 and out.strip() == "4242"


def test_tn_below_threshold_is_gated(tn_session, capsys):
    code, _, err = run(capsys, "recover", "--session-dir", str(tn_session),
                       "--participants", "2,4")
    assert code == 2 and "insufficient shares" in err


def test_tn_secure_sum_matches_plain(tn_session, capsys):
    code, out, _ = run(capsys, "recover", "--session-dir", str(tn_session),
                       "--participants", "1,3,5", "--secure-sum")
    assert code == 0 and out.strip() == "4242"
    assert (tn_session / "transcripts" / "recover-1-3-5.log").exists()


@pytest.mark.parametrize("key, value", [("p", "8209"), ("t", "2"), ("n", "6")])
def test_recover_rejects_edited_manifest_header(tn_session, tmp_path, capsys, key, value):
    # without the header in the MAC, p 8209 (a prime above every share)
    # recovered a wrong secret with exit 0
    session = tmp_path / "s"
    shutil.copytree(tn_session, session)
    manifest = session / "manifest"
    manifest.write_text(_set_value(key, value)(manifest.read_text()))
    code, out, err = run(capsys, "recover", "--session-dir", str(session),
                         "--participants", "1,2,3")
    assert code == 2 and out == ""
    assert err.startswith("error: MAC check failed for participant 1: ")


def test_tn_usage_validation(tmp_path, capsys):
    base = ["deal", "--mode", "tn", "--secret", "1", "--session-dir", str(tmp_path / "x")]
    assert run(capsys, *base, "--n", "2", "--t", "3", "--p", "11")[0] == 1
    assert run(capsys, *base, "--n", "2")[0] == 1  # missing --t/--p
    code, _, err = run(capsys, *base, "--n", "2", "--t", "2", "--p", "12")
    assert code == 2 and "prime" in err
    code, _, err = run(capsys, "deal", "--mode", "tn", "--secret", "99999",
                       "--n", "2", "--t", "2", "--p", "11",
                       "--session-dir", str(tmp_path / "y"))
    assert code == 2 and "out of range" in err


def _drop_line(key):
    return lambda text: "".join(
        line for line in text.splitlines(True) if not line.startswith(f"{key} ")
    )


def _set_value(key, value):
    return lambda text: "".join(
        f"{key} {value}\n" if line.startswith(f"{key} ") else line
        for line in text.splitlines(True)
    )


def _edit_header(old, new):
    return lambda text: text.replace(old, new, 1)


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("open/bundle-1.txt", _edit_header(" participant=1", ""), "no participant field"),
        ("open/bundle-1.txt", _edit_header(" k=13", ""), "no k field"),
        ("open/bundle-1.txt", _edit_header("k=13", "k=thirteen"), "field k is not an integer"),
        ("manifest", _drop_line("mode"), "mode must be nn or tn"),
        ("manifest", _drop_line("n"), "manifest has no n field"),
        ("manifest", _drop_line("t"), "manifest has no t field"),
        ("manifest", _drop_line("k"), "manifest has no k field"),
        ("manifest", _set_value("k", "14"), "the manifest says k=14"),
        ("manifest", _drop_line("rank"), "manifest has no rank field"),
        ("manifest", _drop_line("p"), "manifest has no p field"),
        ("manifest", _set_value("n", "five"), "field n is not an integer"),
        ("manifest", _set_value("rank", "3.0"), "field rank is not an integer"),
        ("manifest", _set_value("p", ""), "field p is not an integer"),
    ],
)
def test_recover_reports_malformed_fields_in_one_line(tn_session, tmp_path, capsys,
                                                      name, edit, message):
    session = tmp_path / "s"
    shutil.copytree(tn_session, session)
    path = session / name
    path.write_text(edit(path.read_text()))
    _commit_mac(session, 1)  # so that parsing is what rejects the file
    code, out, err = run(capsys, "recover", "--session-dir", str(session),
                         "--participants", "1,2,3")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert message in err


# ---------------------------------------------------------------------------
# tamper guard: any damage to a session ends in one error line or the secret

@pytest.fixture(scope="module")
def nn_session(tmp_path_factory):
    session = tmp_path_factory.mktemp("nn") / "s"
    code = main(["deal", "--mode", "nn", "--secret", "c0ffee", "--n", "3",
                 "--seed", "14", "--session-dir", str(session)])
    assert code == 0
    return session


def _session_files(n):
    return (["manifest"] + [f"secure/participant-{j}.grp" for j in range(1, n + 1)]
            + [f"open/bundle-{j}.txt" for j in range(1, n + 1)])


def _truncate(draw, session, n):
    path = session / draw(st.sampled_from(_session_files(n)))
    data = path.read_bytes()
    path.write_bytes(data[: draw(st.integers(0, len(data) - 1))])


def _delete_manifest_line(draw, session, n):
    lines = (session / "manifest").read_text().splitlines(True)
    del lines[draw(st.integers(0, len(lines) - 1))]
    (session / "manifest").write_text("".join(lines))


def _swap_participants(draw, session, n):
    pattern = draw(st.sampled_from(["open/bundle-{}.txt", "secure/participant-{}.grp"]))
    i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    a, b = session / pattern.format(i), session / pattern.format(j)
    data = a.read_bytes()
    a.write_bytes(b.read_bytes())
    b.write_bytes(data)


def _flip_letter(draw, session, n):
    path = session / f"open/bundle-{draw(st.integers(1, n))}.txt"
    lines = path.read_text().splitlines()
    row = draw(st.integers(1, len(lines) - 1))
    tag, *tokens = lines[row].split()
    if not tokens:
        return
    at = draw(st.integers(0, len(tokens) - 1))
    letters = [f"x{i}{s}" for i in (1, 2, 3) for s in ("", "^-1")]
    tokens[at] = draw(st.sampled_from([t for t in letters if t != tokens[at]]))
    lines[row] = " ".join([tag, *tokens])
    path.write_text("\n".join(lines) + "\n")


def _change_header_value(draw, session, n):
    manifest = session / "manifest"
    text = manifest.read_text()
    keys = [line.split()[0] for line in text.splitlines() if not line.startswith("hmac-")]
    key = draw(st.sampled_from(keys))
    value = draw(st.one_of(st.integers(-2, 9000).map(str),
                           st.sampled_from(["nn", "tn", "", "3.0", " 3", "0x3"])))
    manifest.write_text(_set_value(key, value)(text))


@pytest.mark.parametrize("mode", ["nn", "tn"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_tampered_session_fails_in_one_line_or_recovers(nn_session, tn_session, mode, data):
    source, n, secret = (nn_session, 3, "c0ffee") if mode == "nn" else (tn_session, 5, "4242")
    tamper = data.draw(st.sampled_from([_truncate, _delete_manifest_line, _swap_participants,
                                        _flip_letter, _change_header_value]))
    with tempfile.TemporaryDirectory() as scratch:
        session = Path(scratch) / "s"
        shutil.copytree(source, session, ignore=shutil.ignore_patterns("transcripts"))
        tamper(data.draw, session, n)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["recover", "--session-dir", str(session),
                         "--participants", ",".join(map(str, range(1, n + 1)))])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert out == f"{secret}\n" and err == ""
    else:
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err


def test_tn_bad_participant_list(tn_session, capsys):
    assert run(capsys, "recover", "--session-dir", str(tn_session),
               "--participants", "1,preston")[0] == 1
    assert run(capsys, "recover", "--session-dir", str(tn_session),
               "--participants", "1,2,9")[0] == 2


def test_missing_session_is_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "recover", "--session-dir", str(tmp_path / "nope"),
                       "--participants", "1")
    assert code == 2


# ---------------------------------------------------------------------------
# tietze-break + inspect

def test_break_and_inspect_pipeline(tmp_path, capsys):
    grp = tmp_path / "g.grp"
    code, _, _ = run(capsys, "gen-group", "--seed", "21", "--length", "30", "--out", str(grp))
    assert code == 0
    broken = tmp_path / "g.broken"
    code, out, _ = run(capsys, "tietze-break", "--in", str(grp), "--out", str(broken))
    assert code == 0
    assert "max-length 3" in out
    text = broken.read_text()
    head = text.split("define", 1)[0]
    small = parse_presentation(head)
    assert all(len(r) <= 3 for r in small.relators)

    code, out, _ = run(capsys, "inspect", "--in", str(grp))
    assert code == 0 and "satisfied True" in out


# SHA-256 of the --out file and of stdout: per relator length L, for
# random_platform_group(3, 3, L, "1/6", Random(L)), and for CHAIN, the one
# relator x1 x2 ... x26, whose pair classes are all distinct from the start
CHAIN = "generators 26\nrelator " + " ".join(f"x{i}" for i in range(1, 27)) + "\n"
PINNED_BREAKS = {
    40: ("0a6a0a4a6489dfa2792318c3cc7e675f17e68b0b4358ad5f88d9d336798632cc",
         "042f7e75268a65fa3d3edcdf83720655f3144e34fddcf29ed50d4fbec8399dbd"),
    80: ("ed92de1b5da4d67372b9302791b5ece9a2a1bca2c4d6046594b1ebeae61cad6a",
         "c1d9cd26d47e630b09d92c942603dc6a49cd40ddc92d4519421a047f39ab7474"),
    120: ("eea0c50ae6be68f72243da24d8a47279b6442005ae6229e30983ef1e3d1f6f7a",
          "e89222d3f81a762af90c0d4dffac2cb6fe900e61844e7c2b1436e04416f4cc29"),
    "chain": ("f4f429f32788612dc0b421daff101ded900f761da110f64b7b83fb91a7cc48a3",
              "fdc59bb8dcb8748b851fa876e4d116023302cb1c32961cdb2f2a91e4fce41ad5"),
}


@pytest.mark.parametrize("case", list(PINNED_BREAKS))
def test_tietze_break_bytes_are_pinned(tmp_path, capsys, case):
    grp, broken = tmp_path / "g.grp", tmp_path / "g.broken"
    grp.write_text(CHAIN if case == "chain" else serialize_presentation(
        random_platform_group(3, 3, case, "1/6", Random(case))))
    code, out, _ = run(capsys, "tietze-break", "--in", str(grp), "--out", str(broken))
    assert code == 0
    digests = (hashlib.sha256(broken.read_bytes()).hexdigest(),
               hashlib.sha256(out.encode()).hexdigest())
    assert digests == PINNED_BREAKS[case]


def test_inspect_word_verdicts(tmp_path, capsys):
    grp = tmp_path / "g.grp"
    run(capsys, "gen-group", "--seed", "22", "--out", str(grp))
    p = parse_presentation(grp.read_text())

    code, out, _ = run(capsys, "inspect", "--in", str(grp), "--word", "")
    assert code == 0 and "trivial True" in out and "steps 0" in out

    relator = out_word = None
    from groupshare.freegroup import serialize_word

    relator = serialize_word(p.relators[0])
    code, out, _ = run(capsys, "inspect", "--in", str(grp), "--word", relator)
    assert code == 0 and "trivial True" in out and "steps 1" in out

    code, out, _ = run(capsys, "inspect", "--in", str(grp), "--word", "x1 x2")
    assert code == 0 and "trivial False" in out


def test_inspect_rejects_bad_word(tmp_path, capsys):
    grp = tmp_path / "g.grp"
    run(capsys, "gen-group", "--seed", "23", "--out", str(grp))
    code, _, err = run(capsys, "inspect", "--in", str(grp), "--word", "x9")
    assert code == 2
