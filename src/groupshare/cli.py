"""Command-line entry point and session orchestration.

Subcommands:

  gen-group     sample a C'(lambda) platform presentation and write it out
  deal          run the dealer: sample per-participant groups (secure
                payloads), split/encode the secret, write share bundles
                (open payloads) and a session manifest
  recover       decode listed participants' bundles and recombine, either
                plainly or through the masked-ring secure sum
  tietze-break  rewrite a presentation so every relator has length <= 3
  inspect       report the cancellation condition, or trace a word through
                Dehn reduction

Every command is deterministic for a given --seed.  Exit codes: 0 success,
1 usage, 2 bad data or precondition, 3 sampling budget exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import hmac
import re
import sys
from fractions import Fraction
from functools import cache, partial
from pathlib import Path
from random import Random

from .errors import BudgetExhausted
from .freegroup import Alphabet, parse_word, serialize_word
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

    gen = sub.add_parser("gen-group", help="sample a small cancellation platform group")
    gen.add_argument("--rank", type=int, default=3)
    gen.add_argument("--relators", type=int, default=3)
    gen.add_argument("--length", type=int, default=40)
    gen.add_argument("--lambda", dest="lam", default="1/6")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler="cmd_gen_group")

    deal = sub.add_parser("deal", help="deal a secret into a session directory")
    deal.add_argument("--mode", choices=("nn", "tn"), required=True)
    deal.add_argument("--secret", required=True,
                      help="hex bit string (nn) or decimal residue (tn)")
    deal.add_argument("--n", type=int, required=True)
    deal.add_argument("--t", type=int)
    deal.add_argument("--p", type=int)
    deal.add_argument("--rank", type=int, default=3)
    deal.add_argument("--relators", type=int, default=3)
    deal.add_argument("--length", type=int, default=40)
    deal.add_argument("--lambda", dest="lam", default="1/6")
    deal.add_argument("--seed", type=int, default=0)
    deal.add_argument("--session-dir", required=True)
    deal.set_defaults(handler="cmd_deal")

    rec = sub.add_parser("recover", help="recover a secret from a session directory")
    rec.add_argument("--session-dir", required=True)
    rec.add_argument("--participants", required=True,
                     help="comma-separated participant indices, e.g. 1,3,4")
    rec.add_argument("--secure-sum", action="store_true",
                     help="recombine through the masked ring and write a transcript")
    rec.add_argument("--seed", type=int, default=0)
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


def _parse_lambda(raw: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--lambda must be a fraction such as 1/6, got {raw!r}") from None


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _int_field(fields: dict[str, str], key: str, source: str) -> int:
    if key not in fields:
        raise ValueError(f"{source} has no {key} field")
    try:
        return int(fields[key])
    except ValueError:
        raise ValueError(f"{source} field {key} is not an integer: {fields[key]!r}") from None


def _bundle_text(column: WordColumn, k: int) -> str:
    lines = [f"share-bundle participant={column.group_hint} k={k}"]
    for i, w in enumerate(column.words, start=1):
        body = serialize_word(w)
        lines.append(f"w{i} {body}" if body else f"w{i}")
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
    alphabet = Alphabet(rank)
    words = []
    for i, line in enumerate(lines[1:], start=1):
        tag, _, body = line.partition(" ")
        if tag != f"w{i}":
            raise ValueError(f"unexpected bundle line {line!r}")
        words.append(parse_word(body, alphabet))
    return WordColumn(tuple(words), group_hint=participant)


_MAC_KEY = "hmac-sha256:"


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


def _manifest_text(entries: dict[str, str]) -> str:
    return "\n".join(f"{key} {value}" for key, value in entries.items()) + "\n"


def _manifest_header(manifest: dict[str, str]) -> str:
    """Every manifest line except the MACs, in file order."""
    return _manifest_text({k: v for k, v in manifest.items() if not k.startswith(_MAC_KEY)})


def _read_manifest(session: Path) -> dict[str, str]:
    path = session / "manifest"
    if not path.exists():
        raise ValueError(f"no manifest in {session}")
    out = {}
    for line in path.read_text().splitlines():
        if line.strip():
            key, _, value = line.partition(" ")
            out[key] = value
    return out


def _parse_participants(raw: str, n: int) -> list[int]:
    try:
        listed = sorted({int(x) for x in raw.split(",") if x.strip()})
    except ValueError as exc:
        raise UsageError(f"bad participant list {raw!r}") from exc
    if not listed:
        raise UsageError("empty participant list")
    if any(j < 1 or j > n for j in listed):
        raise ValueError(f"participant index out of range 1..{n}")
    return listed


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
    lam = _parse_lambda(args.lam)
    rng = Random(args.seed)
    p = random_platform_group(args.rank, args.relators, args.length, lam, rng)
    _write(Path(args.out), serialize_presentation(p))
    _print_report(check_small_cancellation(p, lam))
    print(f"wrote {args.out}")


def cmd_deal(args: argparse.Namespace) -> None:
    _check_group_args(args)
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    if args.mode == "tn":
        if args.t is None or args.p is None:
            raise UsageError("tn mode requires --t and --p")
        if not 1 <= args.t <= args.n:
            raise UsageError("need 1 <= t <= n")
    elif args.t is not None and args.t != args.n:
        raise UsageError("nn mode fixes t = n")

    lam = _parse_lambda(args.lam)
    if lam > ONE_SIXTH:
        raise UsageError("--lambda must be at most 1/6: Dehn's algorithm decides "
                         "the word problem only on C'(1/6) groups")
    rng = Random(args.seed)
    session = Path(args.session_dir)

    if args.mode == "tn":
        modulus = PrimeModulus(args.p)
        if not re.fullmatch("[0-9]+", args.secret):
            raise ValueError(f"tn secret must be decimal, got {args.secret!r}")
        secret = int(args.secret)
        if not 0 <= secret < modulus.p:
            raise ValueError(f"secret out of range [0, {modulus.p})")
        k = modulus.p.bit_length()
        cfg = SessionConfig(n=args.n, t=args.t, k=k, p=modulus)
        deal = partial(deal_tn, secret, cfg, rng=rng)
        t_value = args.t
    else:
        if not re.fullmatch("[0-9a-fA-F]+", args.secret):
            raise ValueError(f"nn secret must be hex, got {args.secret!r}")
        secret_value = int(args.secret, 16)
        k = 4 * len(args.secret)
        bits = int_to_column(secret_value, k)
        deal = partial(deal_nn, bits, rng=rng)
        t_value = args.n
    groups = [random_platform_group(args.rank, args.relators, args.length, lam, rng)
              for _ in range(args.n)]
    columns = deal(groups)

    manifest = {"mode": args.mode, "n": str(args.n), "t": str(t_value), "k": str(k),
                "rank": str(args.rank)}
    if args.mode == "tn":
        manifest["p"] = str(args.p)
    header = _manifest_text(manifest)
    for j, (g, column) in enumerate(zip(groups, columns), start=1):
        secure_text, open_text = serialize_presentation(g), _bundle_text(column, k)
        _write(session / f"secure/participant-{j}.grp", secure_text)
        _write(session / f"open/bundle-{j}.txt", open_text)
        manifest[f"{_MAC_KEY}participant-{j}"] = _bundle_mac(
            secure_text.encode(), header, open_text.encode()
        )
    _write(session / "manifest", _manifest_text(manifest))
    print(f"dealt {args.mode} session for {args.n} participants into {session}")


def cmd_recover(args: argparse.Namespace) -> None:
    session = Path(args.session_dir)
    manifest = _read_manifest(session)
    mode = manifest.get("mode")
    if mode not in ("nn", "tn"):
        raise ValueError(f"manifest mode must be nn or tn, got {mode!r}")
    n, t, k, rank = (_int_field(manifest, key, "manifest") for key in ("n", "t", "k", "rank"))
    p = _int_field(manifest, "p", "manifest") if mode == "tn" else None
    listed = _parse_participants(args.participants, n)

    required = n if mode == "nn" else t
    if len(listed) < required:
        raise ValueError(
            f"insufficient shares: {mode} recovery needs {required} participants, "
            f"got {len(listed)}"
        )

    header = _manifest_header(manifest)
    decoded = {}
    for j in listed:
        secure_name, open_name = f"secure/participant-{j}.grp", f"open/bundle-{j}.txt"
        secure_data = (session / secure_name).read_bytes()
        open_data = (session / open_name).read_bytes()
        mac = manifest.get(f"{_MAC_KEY}participant-{j}", "")
        if not hmac.compare_digest(_bundle_mac(secure_data, header, open_data).encode(),
                                   mac.encode()):
            raise ValueError(f"MAC check failed for participant {j}: the manifest "
                             f"header, {secure_name} or {open_name} was changed")
        presentation = parse_presentation(secure_data.decode())
        if not presentation.relators:
            raise ValueError(f"{secure_name} has no relators")
        if not check_small_cancellation(presentation, ONE_SIXTH).satisfied:
            raise ValueError(f"{secure_name} does not satisfy C'(1/6), on which alone "
                             "Dehn's algorithm decides the word problem")
        bundle = _parse_bundle(open_data.decode(), rank, k)
        if bundle.group_hint != j:
            raise ValueError(f"bundle {j} carries participant tag {bundle.group_hint}")
        decoded[j] = (presentation, bundle)

    transcript = None
    if mode == "nn":
        columns = [decode_column(bundle, pres) for pres, bundle in decoded.values()]
        if args.secure_sum:
            result, transcript = run_secure_sum(columns, Random(args.seed))
        else:
            result = recover_secret_nn(columns)
        secret = format(column_to_int(result), f"0{k // 4}x")
    else:
        points = [recover_share(bundle, pres, p) for pres, bundle in decoded.values()]
        if args.secure_sum:
            value, transcript = run_secure_linear_combination(points, p, Random(args.seed))
        else:
            value = interpolate_at_zero(points, p)
        secret = str(value)

    if transcript is not None:
        name = "recover-" + "-".join(map(str, listed)) + ".log"
        _write(session / "transcripts" / name, export_transcript(transcript))
    print(secret)


def cmd_tietze_break(args: argparse.Namespace) -> None:
    p = parse_presentation(Path(args.infile).read_text())
    result = break_relators(p)
    _write(Path(args.out), serialize_breakdown(result))
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
    print(f"trivial {trace.is_trivial}")
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
