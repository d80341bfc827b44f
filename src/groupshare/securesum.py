"""Masked ring protocols for combining shares without revealing them.

The participants sit on a ring P1 -> P2 -> ... -> Pn -> P1 of pairwise
secure channels.  P1 starts by sending N1 + C1 for a random mask N1; each
Pi adds Ni + Ci to what it received and passes it on; when the total comes
back, P1 strips N1 and broadcasts S = sum(Ci) + sum(N2..Nn) on the open
channel, after which P2..Pn broadcast the running value with their own
masks removed, in ring order, so the last broadcast is the bare sum and
every participant ends holding it.

Two payload domains run the same ring: XOR over fixed-width bit columns
for the all-participants scheme, and arithmetic mod p for the Lagrange
combination sum(c_i * y_i) = f(0) of the threshold scheme, where each
participant weights its own share by the public c_i before the ring.

Every run produces a Transcript of what the channels carried: the message
sequence and nothing else.  No participant's input or mask is kept in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from random import Random
from typing import Callable, Sequence, Union

from .scheme import BitColumn, _check_columns, _xor, column_to_int
from .shamir import SharePoint, lagrange_coefficients

__all__ = [
    "Message",
    "Transcript",
    "run_secure_sum",
    "run_secure_linear_combination",
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
    modulus: int  # p for a run mod p, 0 for an xor run
    messages: tuple[Message, ...]

    @property
    def output(self) -> Payload:
        return self.messages[-1].payload


def _ring(
    inputs: Sequence[Payload],
    masks: Sequence[Payload],
    add: Callable[[Payload, Payload], Payload],
    sub: Callable[[Payload, Payload], Payload],
) -> tuple[Message, ...]:
    """The 2n messages of one run: rounds 1..n carry the masked running sum
    from Pi to Pi+1, rounds n+1..2n the broadcasts that strip one mask each."""
    n = len(inputs)
    hops = list(accumulate(map(add, masks, inputs), add))
    opened = list(accumulate(masks, sub, initial=hops[-1]))[1:]
    return tuple(
        [Message(i + 1, i + 1, (i + 1) % n + 1, RING, v) for i, v in enumerate(hops)]
        + [Message(n + 1 + i, i + 1, None, OPEN, v) for i, v in enumerate(opened)]
    )


def run_secure_sum(inputs: Sequence[Sequence[int]], rng: Random) -> tuple[BitColumn, Transcript]:
    """Masked-ring XOR of private bit columns; returns (sum, transcript)."""
    if len(inputs) < 3:
        raise ValueError("the masked ring needs at least 3 participants")
    cols = _check_columns(inputs)
    masks = [tuple(rng.getrandbits(1) for _ in col) for col in cols]
    tr = Transcript(0, _ring(cols, masks, _xor, _xor))
    return tr.output, tr


def run_secure_linear_combination(
    shares: Sequence[SharePoint], p: int, rng: Random
) -> tuple[int, Transcript]:
    """Compute f(0) = sum c_i * y_i over the masked ring without revealing
    the y_i; the Lagrange weights c_i are public."""
    if len(shares) < 3:
        raise ValueError("the masked ring needs at least 3 participants")
    coefficients = lagrange_coefficients([s.index for s in shares], p)
    weighted = [c * (s.value % p) % p for c, s in zip(coefficients, shares)]
    masks = [rng.randrange(p) for _ in shares]
    messages = _ring(weighted, masks, lambda a, b: (a + b) % p, lambda a, b: (a - b) % p)
    tr = Transcript(p, messages)
    return tr.output, tr


def _payload_hex(tr: Transcript, payload: Payload) -> str:
    if not tr.modulus:
        return format(column_to_int(payload), f"0{(len(payload) + 3) // 4}x")
    return format(payload, "x")


def export_transcript(tr: Transcript) -> str:
    """Line format: ``round <r> <from>-><to|*> <payload-hex>``."""
    lines = []
    for m in tr.messages:
        to = "*" if m.receiver is None else str(m.receiver)
        lines.append(f"round {m.round} {m.sender}->{to} {_payload_hex(tr, m.payload)}")
    return "\n".join(lines) + "\n"
