"""Masked ring protocols for combining shares without revealing them.

The participants sit on a ring P1 -> P2 -> ... -> Pn -> P1 of pairwise
secure channels.  P1 starts by sending N1 + C1 for a random mask N1; each
Pi adds Ni + Ci to what it received and passes it on; when the total comes
back, P1 strips N1 and broadcasts S = sum(Ci) + sum(N2..Nn) on the open
channel, after which P2..Pn broadcast the running value with their own
masks removed, in ring order, so the last broadcast is the bare sum and
every participant ends holding it.

Two payload domains share the machinery: XOR over fixed-width bit columns
for the all-participants scheme, and arithmetic mod p for the Lagrange
combination sum(c_i * y_i) = f(0) of the threshold scheme.

Every run produces a Transcript: the full message sequence plus each
participant's private state, enough to replay the run deterministically
and to audit what any single observer could infer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from random import Random
from typing import Sequence, Union

from .scheme import BitColumn
from .shamir import SharePoint, lagrange_coefficients

__all__ = [
    "Message",
    "Transcript",
    "PrivacyAudit",
    "run_secure_sum",
    "run_secure_linear_combination",
    "transcript_privacy_audit",
    "export_transcript",
]

Payload = Union[BitColumn, int]

RING = "secure-ring"
OPEN = "broadcast"


@dataclass(frozen=True)
class Message:
    round: int
    sender: int
    receiver: int | None  # None = broadcast to everyone
    channel: str  # RING or OPEN
    payload: Payload


@dataclass(frozen=True)
class Transcript:
    kind: str  # "xor" or "modp"
    n: int
    width: int  # bit width (xor) or 0
    modulus: int  # p (modp) or 0
    coefficients: tuple[int, ...]  # public weights; all ones for plain sums
    messages: tuple[Message, ...]
    inputs: tuple[Payload, ...]  # private: participant i+1 holds inputs[i]
    masks: tuple[Payload, ...]  # private: participant i+1 holds masks[i]

    @property
    def output(self) -> Payload:
        return self.messages[-1].payload


@dataclass(frozen=True)
class PrivacyAudit:
    """Per-observer report: ``determined`` lists the other participants
    whose entire input the view pins down; ``consistent_inputs`` counts,
    per participant, how many input values remain consistent."""

    observer: int | str
    determined: tuple[int, ...]
    consistent_inputs: tuple[int, ...]


# ---------------------------------------------------------------------------
# the two arithmetic domains

class _XorDomain:
    def __init__(self, width: int):
        self.width = width

    def add(self, a: BitColumn, b: BitColumn) -> BitColumn:
        return tuple(x ^ y for x, y in zip(a, b))

    sub = add

    def scale(self, c: int, a: BitColumn) -> BitColumn:
        return a

    def random(self, rng: Random) -> BitColumn:
        return tuple(rng.getrandbits(1) for _ in range(self.width))

    def zero(self) -> BitColumn:
        return (0,) * self.width

    def enumerate(self):
        return product((0, 1), repeat=self.width)


class _ModPDomain:
    def __init__(self, p: int):
        self.p = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def scale(self, c: int, a: int) -> int:
        return c * a % self.p

    def random(self, rng: Random) -> int:
        return rng.randrange(self.p)

    def zero(self) -> int:
        return 0

    def enumerate(self):
        return range(self.p)


def _payload_sequence(domain, coefficients, inputs, masks) -> list[Payload]:
    """Payloads of rounds 1..2n given the full private state."""
    n = len(inputs)
    payloads = []
    running = domain.zero()
    for i in range(n):
        running = domain.add(
            running, domain.add(masks[i], domain.scale(coefficients[i], inputs[i]))
        )
        payloads.append(running)
    value = domain.sub(running, masks[0])
    payloads.append(value)
    for i in range(1, n):
        value = domain.sub(value, masks[i])
        payloads.append(value)
    return payloads


def _wrap_messages(n: int, payloads: Sequence[Payload]) -> tuple[Message, ...]:
    messages = [
        Message(i + 1, i + 1, (i + 1) % n + 1, RING, payloads[i]) for i in range(n)
    ]
    messages.append(Message(n + 1, 1, None, OPEN, payloads[n]))
    messages.extend(
        Message(n + 1 + i, i + 1, None, OPEN, payloads[n + i]) for i in range(1, n)
    )
    return tuple(messages)


# ---------------------------------------------------------------------------
# protocol runs

def _run_ring(kind: str, domain, inputs, coefficients, rng: Random) -> Transcript:
    n = len(inputs)
    masks = tuple(domain.random(rng) for _ in range(n))
    payloads = _payload_sequence(domain, coefficients, inputs, masks)
    return Transcript(
        kind=kind,
        n=n,
        width=getattr(domain, "width", 0),
        modulus=getattr(domain, "p", 0),
        coefficients=tuple(coefficients),
        messages=_wrap_messages(n, payloads),
        inputs=tuple(inputs),
        masks=masks,
    )


def run_secure_sum(inputs: Sequence[Sequence[int]], rng: Random) -> tuple[BitColumn, Transcript]:
    """Masked-ring XOR of private bit columns; returns (sum, transcript)."""
    cols = [tuple(c) for c in inputs]
    if len(cols) < 3:
        raise ValueError("the masked ring needs at least 3 participants")
    width = len(cols[0])
    if any(len(c) != width for c in cols):
        raise ValueError("column width mismatch")
    if any(b not in (0, 1) for c in cols for b in c):
        raise ValueError("bit column entries must be 0 or 1")
    tr = _run_ring("xor", _XorDomain(width), cols, (1,) * len(cols), rng)
    return tr.output, tr


def run_secure_linear_combination(
    shares: Sequence[SharePoint], p: int, rng: Random
) -> tuple[int, Transcript]:
    """Compute f(0) = sum c_i * y_i over the masked ring without revealing
    the y_i; the Lagrange weights c_i are public."""
    if len(shares) < 3:
        raise ValueError("the masked ring needs at least 3 participants")
    coefficients = lagrange_coefficients([s.index for s in shares], p)
    tr = _run_ring(
        "modp", _ModPDomain(p), [s.value % p for s in shares], coefficients, rng
    )
    return tr.output, tr


# ---------------------------------------------------------------------------
# privacy audit

def _visible_rounds(tr: Transcript, observer: int | str) -> dict[int, Payload]:
    if observer == "ring":
        picked = (m for m in tr.messages if m.channel == RING)
    elif observer == "open":
        picked = (m for m in tr.messages if m.channel == OPEN)
    else:
        picked = (
            m
            for m in tr.messages
            if m.receiver is None or m.sender == observer or m.receiver == observer
        )
    return {m.round: m.payload for m in picked}


def _consistent_input_values(domain, coefficients, n, inputs, masks, known, observed):
    """Per-participant sets of input values consistent with the observation."""
    unknown = [i for i in range(n) if i != known]
    space = list(domain.enumerate())
    if len(space) ** (2 * len(unknown)) > 1 << 22:
        raise ValueError("audit space too large; audits are desk-scale only")
    values: list[set] = [set() for _ in range(n)]
    base_inputs = list(inputs)
    base_masks = list(masks)
    for input_choice in product(space, repeat=len(unknown)):
        for i, v in zip(unknown, input_choice):
            base_inputs[i] = v
        for mask_choice in product(space, repeat=len(unknown)):
            for i, v in zip(unknown, mask_choice):
                base_masks[i] = v
            payloads = _payload_sequence(domain, coefficients, base_inputs, base_masks)
            if all(payloads[r - 1] == p for r, p in observed.items()):
                for i in range(n):
                    values[i].add(base_inputs[i])
    return values


def transcript_privacy_audit(tr: Transcript, observer: int | str) -> PrivacyAudit:
    """Which other inputs does this observer's view pin down completely?

    The observer is a participant index (own input and mask known, plus all
    messages it sent, received, or heard broadcast), or ``"ring"`` /
    ``"open"`` for an eavesdropper seeing only that channel.  The audit
    enumerates every assignment of the unknown inputs and masks, replays
    the protocol, and keeps the assignments that reproduce the visible
    messages; an input is "determined" when all consistent assignments
    agree on it.  For the XOR domain the message constraints decompose by
    bit position, so the enumeration runs per bit and stays exact at any
    column width.
    """
    if not tr.messages or tr.messages[-1].round != 2 * tr.n:
        raise ValueError("transcript is incomplete")
    if isinstance(observer, int) and not 1 <= observer <= tr.n:
        raise ValueError(f"observer {observer} out of range")
    if isinstance(observer, str) and observer not in ("ring", "open"):
        raise ValueError("eavesdropper observer must be 'ring' or 'open'")
    observed = _visible_rounds(tr, observer)
    n = tr.n
    known = observer - 1 if isinstance(observer, int) else None

    if tr.kind == "xor":
        counts = [1] * n
        domain = _XorDomain(1)
        for bit in range(tr.width):
            values = _consistent_input_values(
                domain,
                tr.coefficients,
                n,
                [(x[bit],) for x in tr.inputs],
                [(x[bit],) for x in tr.masks],
                known,
                {r: (p[bit],) for r, p in observed.items()},
            )
            for i in range(n):
                counts[i] *= len(values[i])
    else:
        values = _consistent_input_values(
            _ModPDomain(tr.modulus),
            tr.coefficients,
            n,
            list(tr.inputs),
            list(tr.masks),
            known,
            observed,
        )
        counts = [len(v) for v in values]

    determined = tuple(i + 1 for i in range(n) if i != known and counts[i] == 1)
    return PrivacyAudit(observer, determined, tuple(counts))


# ---------------------------------------------------------------------------
# transcript export

def _payload_hex(tr: Transcript, payload: Payload) -> str:
    if tr.kind == "xor":
        value = 0
        for bit in payload:
            value = (value << 1) | bit
        return format(value, f"0{(tr.width + 3) // 4}x")
    return format(payload, "x")


def export_transcript(tr: Transcript) -> str:
    """Line format: ``round <r> <from>-><to|*> <payload-hex>``."""
    lines = []
    for m in tr.messages:
        to = "*" if m.receiver is None else str(m.receiver)
        lines.append(f"round {m.round} {m.sender}->{to} {_payload_hex(tr, m.payload)}")
    return "\n".join(lines) + "\n"
