"""Command-line entry point and session orchestration.

Subcommands:

  gen-group     sample a C'(1/6) platform presentation and write it out
  deal          run the dealer: sample per-participant C'(1/6) groups (secure
                payloads), split/encode the secret, write share bundles
                (open payloads) and a session manifest into a new or empty
                --session-dir
  recover       decode the listed participants' bundles, opening no other
                participant's files, and recombine, either plainly or
                through the masked-ring secure sum
  tietze-break  rewrite a presentation so every relator has length <= 3
  inspect       report the cancellation condition, or trace a word through
                Dehn reduction

Every command is deterministic for a given --seed; without one, it draws
from the operating system's random source.  Only the session codec
section knows the session directory's layout.  Exit codes: 0 success,
1 usage, 2 bad data or precondition, 3 sampling budget exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import hmac
import re
import sys
from functools import cache, partial
from pathlib import Path
from random import Random, SystemRandom

from .freegroup import (
    _COMPACT_RANK, _compact_text, _parse_words, Alphabet, parse_word, serialize_word,
)
from .scheme import (
    SessionConfig,
    WordColumn,
    column_to_int,
    deal_nn,
    deal_tn,
    decode_column,
    int_to_column,
    recover_secret_nn,
    recover_share,
)
from .securesum import export_transcript, run_secure_linear_combination, run_secure_sum
from .shamir import PrimeModulus, interpolate_at_zero
from .smallcancel import (
    ONE_SIXTH,
    BudgetExhausted,
    CancellationReport,
    check_small_cancellation,
    dehn_is_trivial,
    parse_presentation,
    random_platform_group,
    serialize_presentation,
)
from .tietze import break_relators, serialize_breakdown

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # route argparse failures to exit code 1
        raise UsageError(message)


# Built on first use and kept: ``main`` runs many times in one process (the
# tests, the benchmark), and building the parser costs about a millisecond.
# Each subcommand names its handler, which ``main`` looks up in this module at
# call time, so a handler replaced on the module is the one that runs.
@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="groupshare")
    sub = parser.add_subparsers(dest="command", required=True)

    # the C'(1/6) platform group that gen-group writes and deal samples per participant
    group = _Parser(add_help=False)
    group.add_argument("--rank", type=int, default=3)
    group.add_argument("--relators", type=int, default=3)
    group.add_argument("--length", type=int, default=40)
    group.add_argument("--seed", type=int)

    gen = sub.add_parser("gen-group", parents=[group],
                         help="sample a small cancellation platform group")
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler="cmd_gen_group")

    deal = sub.add_parser("deal", parents=[group],
                          help="deal a secret into a session directory")
    deal.add_argument("--mode", choices=("nn", "tn"), required=True)
    deal.add_argument("--secret", required=True,
                      help="hex bit string (nn) or decimal residue (tn)")
    deal.add_argument("--n", type=int, required=True)
    deal.add_argument("--t", type=int)
    deal.add_argument("--p", type=int)
    deal.add_argument("--session-dir", required=True)
    deal.set_defaults(handler="cmd_deal")

    rec = sub.add_parser("recover", help="recover a secret from a session directory")
    rec.add_argument("--session-dir", required=True)
    rec.add_argument("--participants", required=True,
                     help="comma-separated participant indices, e.g. 1,3,4")
    rec.add_argument("--secure-sum", action="store_true",
                     help="recombine through the masked ring (at least 3 participants) "
                          "and write a transcript")
    rec.add_argument("--seed", type=int)
    rec.set_defaults(handler="cmd_recover")

    brk = sub.add_parser("tietze-break", help="break relators down to length <= 3")
    brk.add_argument("--in", dest="infile", required=True)
    brk.add_argument("--out", required=True)
    brk.set_defaults(handler="cmd_tietze_break")

    ins = sub.add_parser("inspect", help="inspect a presentation or decide a word")
    ins.add_argument("--in", dest="infile", required=True)
    ins.add_argument("--word", default=None)
    ins.set_defaults(handler="cmd_inspect")

    return parser


# ---------------------------------------------------------------------------
# helpers

def _print_report(report: CancellationReport) -> None:
    print(f"lambda {report.lambda_bound}")
    print(f"max-piece-ratio {report.max_piece_ratio}")
    if report.witness is not None:
        piece, relator = report.witness
        print(f"witness-piece {serialize_word(piece)}")
        print(f"witness-relator {serialize_word(relator)}")
    print(f"satisfied {report.satisfied}")


def _rng(seed: int | None) -> Random:
    """``Random(seed)`` for a seeded run; the operating system's source
    otherwise, so that no eavesdropper can model the draws."""
    return Random(seed) if seed is not None else SystemRandom()


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _parse_participants(raw: str, n: int) -> list[int]:
    items = [x for x in map(str.strip, raw.split(",")) if x]
    if not all(re.fullmatch("[0-9]+", x) for x in items):
        raise UsageError(f"bad participant list {raw!r}")
    listed = sorted(set(map(int, items)))
    if not listed:
        raise UsageError("empty participant list")
    if any(j < 1 or j > n for j in listed):
        raise ValueError(f"participant index out of range 1..{n}")
    return listed


# ---------------------------------------------------------------------------
# session codec: the one place that knows a session directory's layout, its
# manifest, secure/participant-j.grp, open/bundle-j.txt and transcripts/

_SECURE, _OPEN, _MAC_KEY = "secure/participant-{}.grp", "open/bundle-{}.txt", "hmac-sha256:"
_MAC = _MAC_KEY + "participant-{}"


def _int_field(fields: dict[str, str], key: str, source: str) -> int:
    if key not in fields:
        raise ValueError(f"{source} has no {key} field")
    try:
        return int(fields[key])
    except ValueError:
        raise ValueError(f"{source} field {key} is not an integer: {fields[key]!r}") from None


def _bundle_text(column: WordColumn, k: int) -> str:
    lines = [f"share-bundle participant={column.group_hint} k={k}"]
    lines.extend(f"w{i} {_compact_text(w)}" if w else f"w{i}"
                 for i, w in enumerate(column.words, start=1))
    return "\n".join(lines) + "\n"


def _parse_bundle(text: str, rank: int, k: int) -> WordColumn:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("share-bundle "):
        raise ValueError("malformed share bundle header")
    fields = dict(item.partition("=")[::2] for item in lines[0].split()[1:])
    participant = _int_field(fields, "participant", "bundle header")
    advertised = _int_field(fields, "k", "bundle header")
    if advertised != k or len(lines) - 1 != k:
        raise ValueError(f"bundle advertises {advertised} words and carries "
                         f"{len(lines) - 1}, but the manifest says k={k}")
    rows = [line.partition(" ") for line in lines[1:]]
    if [tag for tag, _, _ in rows] != [f"w{i}" for i in range(1, k + 1)]:
        i = next(i for i, (tag, _, _) in enumerate(rows, start=1) if tag != f"w{i}")
        raise ValueError(f"unexpected bundle line {lines[i]!r}")
    words = _parse_words([body for _, _, body in rows], Alphabet(rank))
    return WordColumn(tuple(words), group_hint=participant)


def _bundle_mac(presentation: bytes, header: str, bundle: bytes) -> str:
    """HMAC-SHA256 of the manifest header and one bundle, keyed by that
    participant's presentation text under a fixed label.

    Only a holder of the secure payload can recompute it, so a writer of the
    open channel can change neither the bundle nor the public parameters.
    The label keeps the key apart from a bare SHA-256 of the presentation,
    which HMAC would otherwise use as its key for any text longer than a hash
    block.  The header enters as its digest, so no line can move between the
    header and the bundle without changing the message.
    """
    key = hashlib.sha256(b"groupshare bundle mac\n" + presentation).digest()
    message = hashlib.sha256(header.encode()).digest() + bundle
    return hmac.new(key, message, hashlib.sha256).hexdigest()


def _manifest_text(entries: dict[str, object]) -> str:
    return "\n".join(f"{key} {value}" for key, value in entries.items()) + "\n"


def _write_session(session: Path, mode: str, t: int, k: int, rank: int, p, groups, columns):
    """Write each presentation and bundle, then the manifest (no p line if p is None)."""
    fields = {"mode": mode, "n": len(groups), "t": t, "k": k, "rank": rank, "p": p}
    manifest = {key: value for key, value in fields.items() if value is not None}
    header = _manifest_text(manifest)
    for j, (g, column) in enumerate(zip(groups, columns), start=1):
        secure, bundle = serialize_presentation(g).encode(), _bundle_text(column, k).encode()
        _write(session / _SECURE.format(j), secure)
        _write(session / _OPEN.format(j), bundle)
        manifest[_MAC.format(j)] = _bundle_mac(secure, header, bundle)
    _write(session / "manifest", _manifest_text(manifest).encode())


def _read_manifest(session: Path) -> tuple[dict[str, str], str]:
    """The manifest's values by key, and the header text that its MACs cover."""
    path = session / "manifest"
    if not path.exists():
        raise ValueError(f"no manifest in {session}")
    lines = [line.partition(" ")[::2] for line in path.read_text().splitlines() if line.strip()]
    return dict(lines), _manifest_text({k: v for k, v in lines if not k.startswith(_MAC_KEY)})


def _read_open(session: Path):
    """The public side, read from the manifest and open/ alone: (mode, n, t, k, rank,
    p), the header text, and ``bundle``, which reads participant j's MAC and bundle."""
    manifest, header = _read_manifest(session)
    mode = manifest.get("mode")
    if mode not in ("nn", "tn"):
        raise ValueError(f"manifest mode must be nn or tn, got {mode!r}")
    n, t, k, rank = (_int_field(manifest, key, "manifest") for key in ("n", "t", "k", "rank"))
    p = _int_field(manifest, "p", "manifest") if mode == "tn" else None

    def bundle(j: int) -> tuple[str, bytes]:
        return manifest.get(_MAC.format(j), ""), (session / _OPEN.format(j)).read_bytes()
    return (mode, n, t, k, rank, p), header, bundle


def _read_holder(session: Path, j: int, header: str, mac: str, bundle: bytes, rank: int, k: int):
    """Participant j's presentation and column, parsed only once the MAC keyed by
    secure/participant-j.grp checks out over ``header`` and exactly ``bundle``."""
    secure_name, open_name = _SECURE.format(j), _OPEN.format(j)
    secure = (session / secure_name).read_bytes()
    if not hmac.compare_digest(_bundle_mac(secure, header, bundle).encode(), mac.encode()):
        raise ValueError(f"MAC check failed for participant {j}: the manifest "
                         f"header, {secure_name} or {open_name} was changed")
    presentation = parse_presentation(secure.decode())
    if not presentation.relators:
        raise ValueError(f"{secure_name} has no relators")
    column = _parse_bundle(bundle.decode(), rank, k)
    if column.group_hint != j:
        raise ValueError(f"bundle {j} carries participant tag {column.group_hint}")
    return presentation, column


def _write_transcript(session: Path, listed: list[int], text: str) -> None:
    joined = "-".join(map(str, listed))
    name = f"recover-{joined}.log"
    if len(name) > 255:  # the usual file name limit, in bytes
        name = f"recover-sha256-{hashlib.sha256(joined.encode()).hexdigest()}.log"
    _write(session / "transcripts" / name, text.encode())


# ---------------------------------------------------------------------------
# command handlers

def _check_group_args(args: argparse.Namespace) -> None:
    """The platform-group options that ``gen-group`` and ``deal`` share."""
    if args.length <= 6:
        raise UsageError("--length must exceed 6")
    if args.rank < 1 or args.relators < 1:
        raise UsageError("--rank and --relators must be positive")


def cmd_gen_group(args: argparse.Namespace) -> None:
    _check_group_args(args)
    rng = _rng(args.seed)
    p = random_platform_group(args.rank, args.relators, args.length, ONE_SIXTH, rng)
    _write(Path(args.out), serialize_presentation(p).encode())
    _print_report(check_small_cancellation(p, ONE_SIXTH))
    print(f"wrote {args.out}")


def cmd_deal(args: argparse.Namespace) -> None:
    _check_group_args(args)
    if args.rank < 2:
        raise UsageError("deal needs --rank at least 2: a 0 bit swaps a relator letter for another")
    if args.rank > _COMPACT_RANK:
        raise UsageError(f"deal takes --rank at most {_COMPACT_RANK}: "
                         "a share bundle spells each letter as one character")
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    rng = _rng(args.seed)
    if args.mode == "tn":
        if args.t is None or args.p is None:
            raise UsageError("tn mode requires --t and --p")
        if not 1 <= args.t <= args.n:
            raise UsageError("need 1 <= t <= n")
        modulus = PrimeModulus(args.p)
        if not re.fullmatch("[0-9]+", args.secret):
            raise ValueError(f"tn secret must be decimal, got {args.secret!r}")
        secret = int(args.secret)
        if not 0 <= secret < modulus.p:
            raise ValueError(f"secret out of range [0, {modulus.p})")
        k = modulus.p.bit_length()
        deal = partial(deal_tn, secret, SessionConfig(n=args.n, t=args.t, k=k, p=modulus), rng=rng)
        t, p = args.t, args.p
    else:
        if args.t is not None or args.p is not None:
            raise UsageError("nn mode takes no --t or --p: every participant is needed")
        if not re.fullmatch("[0-9a-fA-F]+", args.secret):
            raise ValueError(f"nn secret must be hex, got {args.secret!r}")
        k = 4 * len(args.secret)
        deal = partial(deal_nn, int_to_column(int(args.secret, 16), k), rng=rng)
        t, p = args.n, None
    session = Path(args.session_dir)
    if session.exists() and any(session.iterdir()):
        raise ValueError(f"session directory {session} is not empty")
    groups = [random_platform_group(args.rank, args.relators, args.length, ONE_SIXTH, rng)
              for _ in range(args.n)]
    _write_session(session, args.mode, t, k, args.rank, p, groups, deal(groups))
    print(f"dealt {args.mode} session for {args.n} participants into {session}")


def cmd_recover(args: argparse.Namespace) -> None:
    session = Path(args.session_dir)
    (mode, n, t, k, rank, p), header, bundle = _read_open(session)
    listed = _parse_participants(args.participants, n)
    required = n if mode == "nn" else t
    if len(listed) < required:
        raise ValueError(f"insufficient shares: {mode} recovery needs {required} participants, "
                         f"got {len(listed)}")
    decoded = [_read_holder(session, j, header, *bundle(j), rank, k) for j in listed]

    transcript = None
    if mode == "nn":
        columns = [decode_column(column, pres) for pres, column in decoded]
        if args.secure_sum:
            result, transcript = run_secure_sum(columns, _rng(args.seed))
        else:
            result = recover_secret_nn(columns)
        secret = format(column_to_int(result), f"0{k // 4}x")
    else:
        points = [recover_share(column, pres, p) for pres, column in decoded]
        if args.secure_sum:
            value, transcript = run_secure_linear_combination(points, p, _rng(args.seed))
        else:
            value = interpolate_at_zero(points, p)
        secret = str(value)

    # the secret first: a transcript that cannot be written must not lose it
    print(secret)
    if transcript is not None:
        _write_transcript(session, listed, export_transcript(transcript))


def cmd_tietze_break(args: argparse.Namespace) -> None:
    p = parse_presentation(Path(args.infile).read_text())
    result = break_relators(p)
    _write(Path(args.out), serialize_breakdown(result).encode())
    total_in = sum(len(r) for r in p.relators)
    total_out = sum(len(r) for r in result.presentation.relators)
    print(f"relators-in {len(p.relators)} total-in {total_in}")
    print(f"relators-out {len(result.presentation.relators)} total-out {total_out}")
    if total_in:
        print(f"ratio {total_out / total_in:.4f}")
    print(f"max-length {max((len(r) for r in result.presentation.relators), default=0)}")


def cmd_inspect(args: argparse.Namespace) -> None:
    p = parse_presentation(Path(args.infile).read_text())
    if args.word is None:
        _print_report(check_small_cancellation(p, ONE_SIXTH))
        return
    w = parse_word(args.word, p.alphabet)
    trace = dehn_is_trivial(p, w)
    print(f"word {serialize_word(w)}")
    print(f"trivial {'unknown' if trace.is_trivial is None else trace.is_trivial}")
    print(f"steps {len(trace.steps)}")
    for i, step in enumerate(trace.steps, start=1):
        print(
            f"step {i} position {step.position} "
            f"replaced [{serialize_word(step.replaced)}] "
            f"by [{serialize_word(step.replacement)}] "
            f"using [{serialize_word(step.relator)}]"
        )
    print(f"final [{serialize_word(trace.final_word)}]")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        globals()[args.handler](args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
