"""Input-sequence generators, including the adversarial families.

A spec is `kind:key=value,...`:

blocks:T=..,L=..           (1^T 0^T)^L, the block construction behind the
                           2*alpha/T bound.
adaptive:L=..[,cutoff=..]  issue 1-requests until the policy's output
                           becomes 1, then 0-requests until it returns to
                           0, repeated L times (the classic adaptive
                           lower-bound family, with a cutoff, default
                           1000, so that never-migrating policies end).
uniform:n=..[,p=..]        n i.i.d. coin flips with bias p in [0, 1]
                           (default 1/2), seeded per trial apart from
                           the algorithm's coins.
fixed:seq=..               a literal sequence.

`GeneratorSpec.parse` rejects unknown kinds and keys, missing keys,
values that do not parse and a bias outside [0, 1].
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import ValidationError
from .exact import parse_rational
from .policies import RandomizedPolicy


def gen_blocks(block_len: int, repetitions: int):
    if block_len < 1 or repetitions < 1:
        raise ValidationError("blocks generator needs T >= 1 and L >= 1")
    return (("1",) * block_len + ("0",) * block_len) * repetitions


def gen_adaptive(policy, phases: int, cutoff: int = 1000):
    """Adaptive request family against a deterministic policy.

    Returns (sequence, cutoff_hit): cutoff_hit flags a phase in which the
    policy resisted migration for `cutoff` straight requests.
    """
    if phases < 1 or cutoff < 1:
        raise ValidationError("adaptive generator needs L >= 1 and cutoff >= 1")
    T = policy.horizon
    seq = []
    cutoff_hit = False
    for _ in range(phases):
        for target in ("1", "0"):
            emitted = 0
            while True:
                seq.append(target)
                emitted += 1
                if policy.output_at(tuple(seq[-T:]), len(seq) + 1) == target:
                    break
                if emitted >= cutoff:
                    cutoff_hit = True
                    break
    return tuple(seq), cutoff_hit


def gen_uniform(length: int, bias, seed):
    """`length` coin flips with bias `bias`, from a stream of their own: the
    trial seed also draws the algorithm's coins, which must not copy them."""
    if length < 1:
        raise ValidationError("uniform generator needs n >= 1")
    bias = float(parse_rational(bias))
    rng = random.Random(f"uniform:{seed}")
    return tuple("1" if rng.random() < bias else "0" for _ in range(length))


def _bias(text):
    p = parse_rational(text)
    if not 0 <= p <= 1:
        raise ValueError(f"bias {p} lies outside [0, 1]")
    return p


# value parser of each key, per kind; every key but `cutoff` and `p` is required
_KEYS = {
    "blocks": {"T": int, "L": int},
    "adaptive": {"L": int, "cutoff": int},
    "uniform": {"n": int, "p": _bias},
    "fixed": {"seq": str},
}
_OPTIONAL = ("cutoff", "p")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str  # blocks | adaptive | uniform | fixed
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}:{inner}" if inner else self.kind

    @staticmethod
    def parse(text: str) -> "GeneratorSpec":
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        if kind not in _KEYS:
            raise ValidationError(f"unknown generator kind {kind!r}")
        keys = _KEYS[kind]
        params = {}
        if rest:
            for item in rest.split(","):
                key, eq, value = item.partition("=")
                key, value = key.strip(), value.strip()
                if not eq:
                    raise ValidationError(f"bad generator parameter {item!r}")
                if key not in keys:
                    raise ValidationError(f"unknown {kind} generator parameter {key!r}")
                if key in params:
                    raise ValidationError(f"repeated {kind} generator parameter {key!r}")
                try:
                    keys[key](value)
                except (ValueError, ZeroDivisionError):
                    raise ValidationError(f"bad {kind} generator value {key}={value!r}") from None
                params[key] = value
        missing = [key for key in keys if key not in params and key not in _OPTIONAL]
        if missing:
            raise ValidationError(f"{kind} generator needs {', '.join(missing)}")
        return GeneratorSpec(kind, params)

    def realize(self, trial_seed, policy=None):
        """Produce one input sequence; `trial_seed` seeds `uniform`, and
        `adaptive` plays against `policy`."""
        p = self.params
        if self.kind == "blocks":
            return gen_blocks(int(p["T"]), int(p["L"]))
        if self.kind == "adaptive":
            if policy is None or isinstance(policy, RandomizedPolicy):
                raise ValidationError("adaptive generator needs a deterministic policy")
            seq, _hit = gen_adaptive(
                policy, int(p["L"]), int(p.get("cutoff", 1000))
            )
            return seq
        if self.kind == "uniform":
            return gen_uniform(int(p["n"]), p.get("p", "1/2"), trial_seed)
        if self.kind == "fixed":
            return tuple(p["seq"])
        raise ValidationError(f"unknown generator kind {self.kind!r}")
