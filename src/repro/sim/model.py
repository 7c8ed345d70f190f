"""First-class system-model axes: the paper's model as a parameter.

The paper proves its theorems inside one fixed model — reliable synchronous
links, a full mesh, at most ``t`` corrupted processes. This module promotes
the *model itself* to a run parameter, a :class:`SystemModel`:

* **classic** — the paper's model, unchanged. No injector is installed, so
  a classic run is bit-for-bit the run we always executed.
* **impersonation(k)** — Okun & Barak's "On the Power of Impersonation
  Attacks" axis: an *external* adversary injects up to ``k`` forged-sender
  frames per round without corrupting any process. Forged frames are real
  codec round-trips of this round's correct traffic, attributed to a spoofed
  sender on a network link of the adversary's choosing; existing
  correct↔correct traffic is never touched, reordered or re-encoded — the
  forgeries are strictly appended frames, so stripping them recovers the
  classic run byte-for-byte (the metamorphic property the test suite pins).
* **partial_synchrony(omission_rate, max_delay)** — rounds stop being
  reliable: each network transmission is independently omitted (or, with
  ``max_delay > 0``, buffered and re-delivered 1..``max_delay`` rounds
  late). This promotes the chaos harness's beyond-model omission/late
  delivery into a seeded, parameterized model with round-offset delivery
  buffers and its own property expectations.

Mechanically a model compiles (via :meth:`SystemModel.build_injector`) into
an injector whose ``perturb(round_no, correct_outboxes, byz_outboxes)`` has
the exact contract of :class:`~repro.sim.chaos.ChaosInjector`'s, and the
runner hands it to the one round loop as the first of its perturbers (chaos,
if any, follows) — so both engines (reference and batched) stay
trace-byte-identical to each other under every model, and the cross-engine
differential contract extends to modelled runs for free. Degenerate models
(``classic``, ``impersonation(k=0)``, ``partial_synchrony(rate=0)``) are
*inert*: no injector is built, nothing is perturbed, and the run is
bit-identical to a model-free run by construction.

Determinism mirrors chaos: every random choice derives from the model's own
seed via :func:`repro.sim.rng.derive_rng` with a per-round token, and
injectors walk outboxes in (engine-identical) insertion order. The self-loop
link (label ``n``) models process-local delivery, not a network link, and is
exempt from both axes.

Each model kind registers its *property expectations*
(:class:`ModelExpectations`, looked up through :data:`EXPECTATIONS`): which
renaming properties must still hold inside the model's bound, which are
expected to degrade, and whether the paper's round budgets survive.
:mod:`repro.analysis.properties` stamps the model onto every
:class:`~repro.analysis.properties.PropertyReport` so violations classify
against those expectations instead of reading as algorithm bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import ConfigurationError
from .process import Outbox, Outboxes, per_label, perturb_links
from .rng import derive_rng

__all__ = [
    "EXPECTATIONS",
    "MODEL_KINDS",
    "ModelExpectations",
    "ModelReport",
    "SystemModel",
    "parse_model",
]

#: Registered model kinds, in presentation order.
MODEL_KINDS: Tuple[str, ...] = ("classic", "impersonation", "partial-synchrony")


@dataclass(frozen=True)
class SystemModel:
    """One point on the system-model axis (frozen, hashable, picklable).

    Prefer the named constructors (:meth:`classic`, :meth:`impersonation`,
    :meth:`partial_synchrony`) over spelling fields out: each kind only
    *has* some of the fields, and validation pins the foreign-axis fields to
    their defaults so every model has exactly one canonical representation
    (cache keys and journal fingerprints depend on that).
    """

    kind: str = "classic"
    #: Impersonation: forged-sender frames injected per round.
    k: int = 0
    #: Partial synchrony: per-transmission omission/delay probability.
    omission_rate: float = 0.0
    #: Partial synchrony: maximum delivery delay in rounds (0 = pure
    #: omission: an affected transmission is simply lost).
    max_delay: int = 1
    #: Seed for the model's own randomness (independent of the run seed,
    #: exactly like :attr:`~repro.sim.chaos.FaultPlan.seed`).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            known = ", ".join(MODEL_KINDS)
            raise ConfigurationError(
                f"unknown system model {self.kind!r}; known models: {known}"
            )
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 0:
            raise ConfigurationError(
                f"impersonation k must be an int >= 0, got {self.k!r}"
            )
        if not 0.0 <= self.omission_rate <= 1.0:
            raise ConfigurationError(
                f"omission_rate must be a probability in [0, 1], "
                f"got {self.omission_rate!r}"
            )
        if (
            isinstance(self.max_delay, bool)
            or not isinstance(self.max_delay, int)
            or self.max_delay < 0
        ):
            raise ConfigurationError(
                f"max_delay must be an int >= 0 rounds, got {self.max_delay!r}"
            )
        # Canonical form: fields from another kind's axis must stay default.
        if self.kind != "impersonation" and self.k != 0:
            raise ConfigurationError(
                f"k={self.k} is an impersonation parameter; "
                f"model kind is {self.kind!r}"
            )
        if self.kind != "partial-synchrony" and (
            self.omission_rate != 0.0 or self.max_delay != 1
        ):
            raise ConfigurationError(
                f"omission_rate/max_delay are partial-synchrony parameters; "
                f"model kind is {self.kind!r}"
            )
        if self.kind == "classic" and self.seed != 0:
            raise ConfigurationError(
                "the classic model takes no parameters (it is the paper's "
                "model); drop seed or pick a non-classic kind"
            )

    # ------------------------------------------------------------ constructors

    @classmethod
    def classic(cls) -> "SystemModel":
        """The paper's model, unchanged (inert: no injector is installed)."""
        return cls()

    @classmethod
    def impersonation(cls, k: int, seed: int = 0) -> "SystemModel":
        """Okun-style external adversary: ``k`` forged frames per round."""
        return cls(kind="impersonation", k=k, seed=seed)

    @classmethod
    def partial_synchrony(
        cls, omission_rate: float, max_delay: int = 1, seed: int = 0
    ) -> "SystemModel":
        """Lossy rounds: transmissions omitted or delayed up to
        ``max_delay`` rounds with probability ``omission_rate`` each."""
        return cls(
            kind="partial-synchrony",
            omission_rate=omission_rate,
            max_delay=max_delay,
            seed=seed,
        )

    # -------------------------------------------------------------- predicates

    @property
    def is_classic(self) -> bool:
        return self.kind == "classic"

    @property
    def is_inert(self) -> bool:
        """True when the model cannot perturb anything (``classic``,
        ``impersonation(k=0)``, ``partial_synchrony(rate=0)``). Inert models
        install no injector, so the run is bit-identical to a model-free
        run *by construction*, not by a no-op code path."""
        if self.kind == "impersonation":
            return self.k == 0
        if self.kind == "partial-synchrony":
            return self.omission_rate == 0.0
        return True

    # ------------------------------------------------------------- description

    def describe(self) -> str:
        """Compact, stable, human-readable summary (tables, reports)."""
        if self.kind == "impersonation":
            parts = [f"k={self.k}"]
            if self.seed:
                parts.append(f"seed={self.seed}")
            return f"impersonation({','.join(parts)})"
        if self.kind == "partial-synchrony":
            parts = [f"rate={self.omission_rate:g}", f"delay={self.max_delay}"]
            if self.seed:
                parts.append(f"seed={self.seed}")
            return f"partial-synchrony({','.join(parts)})"
        return "classic"

    def spec(self) -> str:
        """The :func:`parse_model` spec string for this model — the exact
        inverse of parsing, so scenario tables and CLI flags can carry any
        model as a plain string: ``parse_model(model.spec()) == model``."""
        if self.kind == "impersonation":
            parts = [f"k={self.k}"]
            if self.seed:
                parts.append(f"seed={self.seed}")
            return f"impersonation:{','.join(parts)}"
        if self.kind == "partial-synchrony":
            parts = [f"rate={self.omission_rate:g}", f"delay={self.max_delay}"]
            if self.seed:
                parts.append(f"seed={self.seed}")
            return f"partial-synchrony:{','.join(parts)}"
        return "classic"

    # ------------------------------------------------------------ serialisation

    def to_dict(self) -> dict:
        """JSON-ready payload: the kind plus only the non-default fields,
        so every model serialises to exactly one canonical dict (cache keys
        hash this)."""
        payload: dict = {"kind": self.kind}
        if self.k:
            payload["k"] = self.k
        if self.omission_rate:
            payload["omission_rate"] = self.omission_rate
        if self.max_delay != 1:
            payload["max_delay"] = self.max_delay
        if self.seed:
            payload["seed"] = self.seed
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SystemModel":
        """Inverse of :meth:`to_dict` (journal/cache round-trip)."""
        return cls(
            kind=payload["kind"],
            k=payload.get("k", 0),
            omission_rate=payload.get("omission_rate", 0.0),
            max_delay=payload.get("max_delay", 1),
            seed=payload.get("seed", 0),
        )

    # -------------------------------------------------------------- behaviour

    def expectations(self) -> "ModelExpectations":
        """The model's registered property expectations (see
        :data:`EXPECTATIONS`)."""
        return EXPECTATIONS[self.kind](self)

    def build_injector(
        self, *, n: int, byzantine: Iterable[int] = ()
    ) -> Optional["ImpersonationInjector | PartialSynchronyInjector"]:
        """Compile the model into a per-run injector, or ``None`` when inert.

        The injector's ``perturb`` is the round loop's first perturber; its
        ``report`` records what it did.
        """
        if self.is_inert:
            return None
        if self.kind == "impersonation":
            if n < 2:
                raise ConfigurationError(
                    f"impersonation needs a network link to forge on: "
                    f"n={n} has only the self-loop"
                )
            return ImpersonationInjector(self, n=n, byzantine=byzantine)
        return PartialSynchronyInjector(self, n=n, byzantine=byzantine)


def parse_model(text: str) -> SystemModel:
    """Parse a CLI/scenario model spec into a :class:`SystemModel`.

    Grammar: ``classic`` | ``impersonation:k=K[,seed=S]`` |
    ``partial-synchrony:rate=P[,delay=D][,seed=S]``. Raises
    :class:`~repro.sim.errors.ConfigurationError` on anything else, naming
    the accepted forms.
    """
    usage = (
        "expected classic | impersonation:k=K[,seed=S] | "
        "partial-synchrony:rate=P[,delay=D][,seed=S]"
    )
    kind, _, argtext = text.strip().partition(":")
    params: Dict[str, str] = {}
    if argtext:
        for item in argtext.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key.strip() or not value.strip():
                raise ConfigurationError(
                    f"malformed model parameter {item!r} in {text!r}; {usage}"
                )
            params[key.strip()] = value.strip()

    def take_int(name: str, default: int = 0) -> int:
        raw = params.pop(name, None)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigurationError(
                f"model parameter {name}={raw!r} is not an integer; {usage}"
            ) from None

    try:
        if kind == "classic":
            model = SystemModel.classic()
        elif kind == "impersonation":
            if "k" not in params:
                raise ConfigurationError(
                    f"impersonation requires k=; {usage}"
                )
            model = SystemModel.impersonation(
                take_int("k"), seed=take_int("seed")
            )
        elif kind == "partial-synchrony":
            raw_rate = params.pop("rate", None)
            if raw_rate is None:
                raise ConfigurationError(
                    f"partial-synchrony requires rate=; {usage}"
                )
            try:
                rate = float(raw_rate)
            except ValueError:
                raise ConfigurationError(
                    f"model parameter rate={raw_rate!r} is not a number; "
                    f"{usage}"
                ) from None
            model = SystemModel.partial_synchrony(
                rate, max_delay=take_int("delay", 1), seed=take_int("seed")
            )
        else:
            raise ConfigurationError(
                f"unknown system model {kind!r}; {usage}"
            )
    except TypeError:  # pragma: no cover - defensive
        raise ConfigurationError(f"malformed model spec {text!r}; {usage}")
    if params:
        extra = ", ".join(sorted(params))
        raise ConfigurationError(
            f"unknown model parameter(s) {extra} for {kind!r}; {usage}"
        )
    return model


# --------------------------------------------------------------- expectations


@dataclass(frozen=True)
class ModelExpectations:
    """What a model promises about the four renaming properties.

    ``guaranteed`` properties must hold in *every* run inside the model
    (for properties the algorithm itself promises — a baseline that never
    promised order preservation is not held to it); ``degradable``
    properties may break, and a break classifies as an expected degradation
    rather than an algorithm bug. ``round_budget_holds`` says whether the
    paper's proven round budgets survive the model (partial synchrony
    withholds frames, so they do not).
    """

    model: str
    guaranteed: Tuple[str, ...]
    degradable: Tuple[str, ...]
    bound: str
    round_budget_holds: bool = True

    def classify(self, broken: Iterable[str]) -> Dict[str, str]:
        """Map each broken property to ``"expected-degradation"`` (listed
        as degradable) or ``"unexpected"`` (a guaranteed property broke —
        inside the model's bound that is a finding, not noise)."""
        return {
            prop: (
                "expected-degradation"
                if prop in self.degradable
                else "unexpected"
            )
            for prop in broken
        }


def _classic_expectations(model: SystemModel) -> ModelExpectations:
    return ModelExpectations(
        model=model.describe(),
        guaranteed=(
            "validity",
            "termination",
            "uniqueness",
            "order_preservation",
        ),
        degradable=(),
        bound="the paper's model: reliable synchronous links, <= t "
        "Byzantine slots, each algorithm's resilience regime",
        round_budget_holds=True,
    )


def _impersonation_expectations(model: SystemModel) -> ModelExpectations:
    return ModelExpectations(
        model=model.describe(),
        # Forged frames only *add* traffic; no frame is withheld, so every
        # round-scheduled algorithm still reaches its output schedule.
        guaranteed=("termination",),
        degradable=("validity", "uniqueness", "order_preservation"),
        bound=f"<= {model.k} forged-sender frames per round, injected by "
        "an external adversary through the real codec (Okun & Barak); "
        "agreement-bearing properties may degrade once forged frames "
        "outvote real ones",
        round_budget_holds=True,
    )


def _partial_synchrony_expectations(model: SystemModel) -> ModelExpectations:
    return ModelExpectations(
        model=model.describe(),
        # Withheld frames can starve any property, including termination
        # (a process may never assemble the quorum it is waiting for).
        guaranteed=(),
        degradable=(
            "validity",
            "termination",
            "uniqueness",
            "order_preservation",
        ),
        bound=f"each network transmission independently omitted or "
        f"delayed with p={model.omission_rate:g}, delay <= "
        f"{model.max_delay} round(s); synchrony bounds and round "
        "budgets do not survive",
        round_budget_holds=False,
    )


#: Per-kind expectation builders. Every registered model kind must have an
#: entry — ``SystemModel.expectations()`` dispatches through this table, and
#: the contract tests iterate it to keep the matrix total.
EXPECTATIONS: Dict[str, Callable[[SystemModel], ModelExpectations]] = {
    "classic": _classic_expectations,
    "impersonation": _impersonation_expectations,
    "partial-synchrony": _partial_synchrony_expectations,
}


# --------------------------------------------------------------------- report


@dataclass
class ModelReport:
    """What a model injector actually did during one run (picklable).

    ``delayed`` counts frames scheduled for late delivery;
    ``delivered_late`` the subset whose delivery round arrived before the
    run ended — the difference (:attr:`undelivered`) was still in flight at
    the end and is indistinguishable from an omission to the processes.
    """

    model: str
    forged: int = 0
    omitted: int = 0
    delayed: int = 0
    delivered_late: int = 0

    @property
    def undelivered(self) -> int:
        """Delayed frames the run ended before re-delivering."""
        return self.delayed - self.delivered_late

    @property
    def injected(self) -> bool:
        """True when the model actually perturbed at least one frame."""
        return bool(self.forged or self.omitted or self.delayed)

    def labels(self) -> Tuple[str, ...]:
        """Stable short labels of what happened (triage tables)."""
        out: List[str] = []
        if self.forged:
            out.append(f"forge x{self.forged}")
        if self.omitted:
            out.append(f"omit x{self.omitted}")
        if self.delayed:
            out.append(
                f"delay x{self.delayed} (late x{self.delivered_late})"
            )
        return tuple(out)

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "forged": self.forged,
            "omitted": self.omitted,
            "delayed": self.delayed,
            "delivered_late": self.delivered_late,
        }


# ------------------------------------------------------------------ injectors


def _append_frame(
    target: Outboxes, sender: int, link: int, message, copied: set, copy
) -> None:
    """Append ``message`` on ``link`` to ``copy(target[sender])``, made on
    the first append (``copied`` records it): inputs are never mutated."""
    if sender not in copied:
        copied.add(sender)
        target[sender] = copy(target.get(sender, {}))
    target[sender].setdefault(link, []).append(message)


def _copy_outbox(outbox: Outbox) -> Outbox:
    return {label: list(messages) for label, messages in outbox.items()}


class ImpersonationInjector:
    """Okun-style external adversary: up to ``k`` forged frames per round.

    Each forged frame is a codec round-trip (encode → decode) of one of
    this round's correct frames — the strongest thing an external adversary
    without key material can do is replay plausible traffic under a fake
    sender — attributed to a uniformly chosen spoofed sender on a uniformly
    chosen *network* link of that sender (the self-loop, label ``n``, is
    process-local and cannot be forged onto).

    Existing traffic is passed through by reference, never re-encoded or
    reordered; forgeries are appended to (copy-on-write) outbox buckets.
    Dropping every appended frame therefore reconstructs the classic round
    exactly — the metamorphic guarantee the hypothesis suite pins.
    """

    def __init__(
        self, model: SystemModel, *, n: int, byzantine: Iterable[int] = ()
    ) -> None:
        self.model = model
        self._n = n
        self._byz = frozenset(byzantine)
        self.report = ModelReport(model=model.describe())

    def perturb(
        self, round_no: int, correct_outboxes: Outboxes, byz_outboxes: Outboxes
    ) -> Tuple[Outboxes, Outboxes]:
        # Lazy import: the codec lives above the simulator substrate.
        from ..wire import WireError, decode_message, encode_message

        templates = [
            message
            for outbox in correct_outboxes.values()
            for messages in outbox.values()
            for message in messages
        ]
        if not templates:
            return correct_outboxes, byz_outboxes

        rng = derive_rng(self.model.seed, "model", "impersonation", round_no)
        new_correct = dict(correct_outboxes)
        new_byz = dict(byz_outboxes)
        copied: set = set()
        for _ in range(self.model.k):
            template = templates[rng.randrange(len(templates))]
            spoofed = rng.randrange(self._n)
            # Labels 1..n-1 are network links; label n is the self-loop.
            link = rng.randrange(1, self._n)
            try:
                forged = decode_message(encode_message(template))
            except WireError:  # pragma: no cover - correct frames encode
                continue
            target = new_byz if spoofed in self._byz else new_correct
            _append_frame(target, spoofed, link, forged, copied, _copy_outbox)
            self.report.forged += 1
        return new_correct, new_byz


class PartialSynchronyInjector:
    """Lossy rounds: per-transmission omission and round-offset delivery.

    Stateful across rounds: a delayed frame leaves its round's outboxes and
    re-enters the *delivery round's* outboxes through the same hook,
    appended after that round's fresh traffic (a late frame arrives behind
    the current round's). Frames whose delivery round never comes (the run
    ended) are lost — to the processes that is exactly an omission, and the
    report's :attr:`~ModelReport.undelivered` counts them.

    Like the chaos injector, it fates each network copy independently
    through :func:`~repro.sim.process.perturb_links` (the self-loop is
    exempt, an outbox with no copy omitted or delayed passes through as
    is). Late frames go to a per-label copy of their sender's outbox
    (:func:`~repro.sim.process.per_label`), behind their label's on-time
    copies, where a chaos plan that follows meets them. It applies to
    correct and Byzantine traffic alike (the network does not know who is
    faulty).
    """

    def __init__(
        self, model: SystemModel, *, n: int, byzantine: Iterable[int] = ()
    ) -> None:
        self.model = model
        self._n = n
        self._byz = frozenset(byzantine)
        self.report = ModelReport(model=model.describe())
        #: delivery round -> [(sender, link, message)] in scheduling order.
        self._pending: Dict[int, List[Tuple[int, int, object]]] = {}
        self._per_label = partial(per_label, n=n)

    def perturb(
        self, round_no: int, correct_outboxes: Outboxes, byz_outboxes: Outboxes
    ) -> Tuple[Outboxes, Outboxes]:
        rng = derive_rng(
            self.model.seed, "model", "partial-synchrony", round_no
        )
        new_correct = {
            sender: self._filter(rng, round_no, sender, outbox)
            for sender, outbox in correct_outboxes.items()
        }
        new_byz = {
            sender: self._filter(rng, round_no, sender, outbox)
            for sender, outbox in byz_outboxes.items()
        }
        copied: set = set()
        for sender, link, message in self._pending.pop(round_no, ()):
            target = new_byz if sender in self._byz else new_correct
            _append_frame(target, sender, link, message, copied, self._per_label)
            self.report.delivered_late += 1
        return new_correct, new_byz

    def _filter(
        self, rng, round_no: int, sender: int, outbox: Outbox
    ) -> Outbox:
        """``outbox`` with each network copy on time or, with probability
        ``omission_rate``, omitted or buffered 1..``max_delay`` rounds."""
        rate, max_delay = self.model.omission_rate, self.model.max_delay
        random, report, pending = rng.random, self.report, self._pending

        def fate(label, message):
            if random() >= rate:
                return None
            if max_delay == 0:
                report.omitted += 1
                return ()
            delay = rng.randint(1, max_delay)
            report.delayed += 1
            pending.setdefault(round_no + delay, []).append(
                (sender, label, message)
            )
            return ()

        return perturb_links(outbox, self._n, fate)
