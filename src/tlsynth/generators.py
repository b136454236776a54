"""Input-sequence generators, including the adversarial families.

blocks:   (1^T 0^T)^L, the block construction behind the 2*alpha/T bound.
adaptive: issue 1-requests until the policy's output becomes 1, then
          0-requests until it returns to 0, repeated L times (the
          classic adaptive lower-bound family, with a cutoff so that
          never-migrating policies terminate).
uniform:  i.i.d. coin flips with bias p.
fixed:    a literal sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import ValidationError
from .exact import parse_rational
from .policies import DeterministicPolicy


def gen_blocks(block_len: int, repetitions: int):
    if block_len < 1 or repetitions < 1:
        raise ValidationError("blocks generator needs T >= 1 and L >= 1")
    return (("1",) * block_len + ("0",) * block_len) * repetitions


class _Stepper:
    """Incremental policy driver: exposes the output the policy will use
    for the next step, given everything emitted so far."""

    def __init__(self, policy):
        self.policy = policy
        self.step = 1
        if isinstance(policy, DeterministicPolicy):
            self.base = len(policy.input_alphabet)
            self.modulus = self.base**policy.horizon
            self.code = 0
        else:
            self.window = [None] * policy.horizon

    def next_output(self):
        if isinstance(self.policy, DeterministicPolicy):
            return self.policy.output_alphabet.symbols[self.policy.table[self.code]]
        return self.policy.output_at(tuple(self.window), self.step)

    def feed(self, x):
        if isinstance(self.policy, DeterministicPolicy):
            idx = self.policy.input_alphabet.index(x)
            self.code = (self.code * self.base + idx) % self.modulus
        else:
            self.window.pop(0)
            self.window.append(x)
        self.step += 1


def gen_adaptive(policy, phases: int, cutoff: int = 1000):
    """Adaptive request family against a deterministic policy.

    Returns (sequence, cutoff_hit): cutoff_hit flags a phase in which the
    policy resisted migration for `cutoff` straight requests.
    """
    if phases < 1 or cutoff < 1:
        raise ValidationError("adaptive generator needs L >= 1 and cutoff >= 1")
    stepper = _Stepper(policy)
    seq = []
    cutoff_hit = False
    for _ in range(phases):
        for target in ("1", "0"):
            emitted = 0
            while True:
                seq.append(target)
                stepper.feed(target)
                emitted += 1
                if stepper.next_output() == target:
                    break
                if emitted >= cutoff:
                    cutoff_hit = True
                    break
    return tuple(seq), cutoff_hit


def gen_uniform(length: int, bias, seed):
    if length < 1:
        raise ValidationError("uniform generator needs n >= 1")
    bias = float(parse_rational(bias))
    rng = random.Random(seed)
    return tuple("1" if rng.random() < bias else "0" for _ in range(length))


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
        if kind not in ("blocks", "adaptive", "uniform", "fixed"):
            raise ValidationError(f"unknown generator kind {kind!r}")
        params = {}
        if rest:
            for item in rest.split(","):
                key, eq, value = item.partition("=")
                if not eq:
                    raise ValidationError(f"bad generator parameter {item!r}")
                params[key.strip()] = value.strip()
        return GeneratorSpec(kind, params)

    def realize(self, policy=None, trial_seed=None):
        """Produce one input sequence (a fresh one per trial for `uniform`)."""
        p = self.params
        if self.kind == "blocks":
            return gen_blocks(int(p["T"]), int(p["L"]))
        if self.kind == "adaptive":
            if policy is None:
                raise ValidationError("adaptive generator needs a deterministic policy")
            seq, _hit = gen_adaptive(
                policy, int(p["L"]), int(p.get("cutoff", 1000))
            )
            return seq
        if self.kind == "uniform":
            seed = p.get("seed", 0) if trial_seed is None else trial_seed
            return gen_uniform(int(p["n"]), p.get("p", "1/2"), seed)
        if self.kind == "fixed":
            return tuple(p["seq"])
        raise ValidationError(f"unknown generator kind {self.kind!r}")
