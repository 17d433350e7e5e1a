"""Executable form of a protocol's kernel spec.

:class:`CompiledKernel` turns a declarative
:class:`~repro.engine.kernel.spec.KernelSpec` into the three things the
runtime consumes:

* **codecs** — ``encode``/``decode`` between rich protocol states and
  packed int64 codes (fields stride-packed in declaration order), plus
  their vectorized column forms;
* **the transition** — :meth:`apply_codes` resolves whole arrays of
  ordered (initiator, responder) code pairs in one shot.  Compact
  protocols (code space up to :data:`TABLE_BOUND` codes) are lowered all
  the way to a precomputed ``(C, C)`` pair table, so applying a block is
  a single gather; wide protocols (PLL's ``41 m``-valued timers) run the
  spec's field-wise NumPy ``delta`` over decoded columns instead — no
  Python ``delta`` call either way;
* **feature tables** — :meth:`feature_values` evaluates a spec-declared
  output-feature extractor (``leader``, phase, role ...) over arbitrary
  code arrays, which callers memoize into code- or id-indexed tables.

Compilation is cheap (strides plus, for compact protocols, one
``C x C`` kernel evaluation) and cached per protocol instance by
:func:`repro.engine.kernel.compiled_kernel_for`.
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernel.spec import FieldColumns, KernelSpec
from repro.engine.protocol import Protocol, State
from repro.errors import ProtocolError
from repro.telemetry.profile import DISABLED, StageProfile

__all__ = ["TABLE_BOUND", "UNIVERSE_BOUND", "CodeUniverse", "CompiledKernel"]

#: Largest packed code space lowered to a full ``(C, C)`` pair table at
#: compile time (one gather per block thereafter).  128^2 pair slots x
#: two int64 posts = 256 KiB worst case; every constant-state protocol
#: in the registry (Angluin, the majorities) sits far below it, while
#: counter-carrying protocols fall through to the field kernel.
TABLE_BOUND = 128

#: Largest number of *registered* (reached) codes the shared pair memo
#: covers; beyond it the memo stops growing and lookups kernel-apply
#: per pair.  2048^2 int64 post codes x 2 = 64 MiB at the cap.
UNIVERSE_BOUND = 2048

#: Packed code spaces must fit comfortably in int64 arithmetic
#: (pair keys multiply two codes' strides together downstream).
_MAX_CODES = 1 << 62


class CodeUniverse:
    """Shared, growing pair memo over the codes a protocol has reached.

    Registered codes get dense *universe indices* in first-seen order
    (across every consumer — simulators sharing one compiled kernel
    share one universe).  Post codes for every ordered index pair are
    memoized in a flat ``(U, U)`` table filled in rectangular regions:
    one vectorized kernel call covers everything still missing, so
    fills happen at most once per universe growth and a campaign's
    later trials find the tables fully warm.  Universe indices are
    internal — engines keep their own interners, whose contents and
    ordering are untouched by sharing.
    """

    __slots__ = ("_kernel", "_index_of", "_codes", "_tab0", "_tab1", "_cap", "_filled")

    def __init__(self, kernel: "CompiledKernel") -> None:
        self._kernel = kernel
        self._index_of: dict[int, int] = {}
        self._codes = np.empty(16, dtype=np.int64)
        self._cap = 16
        self._tab0: np.ndarray | None = np.full(16 * 16, -1, dtype=np.int64)
        self._tab1: np.ndarray | None = np.full(16 * 16, -1, dtype=np.int64)
        self._filled = 0

    def __len__(self) -> int:
        return len(self._index_of)

    @property
    def live(self) -> bool:
        """Whether the quadratic memo is still maintained."""
        return self._tab0 is not None

    def index_for(self, code: int) -> int:
        """Dense universe index of ``code``, registering on first sight."""
        index = self._index_of.get(code)
        if index is None:
            index = len(self._index_of)
            self._index_of[code] = index
            if self._tab0 is not None and index >= self._cap:
                self._grow(index + 1)
            if index < self._codes.shape[0]:
                self._codes[index] = code
            else:
                grown = np.empty(
                    max(index + 1, 2 * self._codes.shape[0]), dtype=np.int64
                )
                grown[: self._codes.shape[0]] = self._codes
                grown[index] = code
                self._codes = grown
        return index

    def _grow(self, needed: int) -> None:
        if needed > UNIVERSE_BOUND:
            self._tab0 = self._tab1 = None
            return
        cap = self._cap
        if needed <= cap:
            return
        while cap < needed:
            cap *= 2
        old = self._cap
        new0 = np.full(cap * cap, -1, dtype=np.int64)
        new1 = np.full(cap * cap, -1, dtype=np.int64)
        new0.reshape(cap, cap)[:old, :old] = self._tab0.reshape(old, old)
        new1.reshape(cap, cap)[:old, :old] = self._tab1.reshape(old, old)
        self._tab0, self._tab1, self._cap = new0, new1, cap

    def fill(self, profile: StageProfile = DISABLED) -> None:
        """One kernel call resolving every uncovered ordered index pair.

        Extends the filled ``f x f`` square to ``known x known`` (the
        two missing rectangles); amortized over a run this is
        O(codes^2) kernel elements in O(codes) calls.  Only a call that
        fills is timed, as ``profile``'s ``kernel_fill`` stage.
        """
        known = len(self._index_of)
        filled = self._filled
        if known <= filled or self._tab0 is None:
            return
        with profile.stage("kernel_fill"):
            codes = self._codes[:known]
            fresh = codes[filled:known]
            pre0 = np.concatenate(
                [np.repeat(codes, known - filled), np.repeat(fresh, filled)]
            )
            pre1 = np.concatenate(
                [
                    np.tile(fresh, known),
                    np.tile(codes[:filled], known - filled),
                ]
            )
            post0, post1 = self._kernel.apply_codes(pre0, pre1)
            cap = self._cap
            rows = np.arange(known, dtype=np.int64)
            cols = np.arange(filled, known, dtype=np.int64)
            slots = np.concatenate(
                [
                    (rows[:, None] * cap + cols[None, :]).ravel(),
                    (
                        cols[:, None] * cap
                        + np.arange(filled, dtype=np.int64)[None, :]
                    ).ravel(),
                ]
            )
            self._tab0[slots] = post0
            self._tab1[slots] = post1
            self._filled = known

    def pair_posts(
        self, index0: int, index1: int, profile: StageProfile = DISABLED
    ) -> tuple[int, int]:
        """Memoized post codes for one ordered universe-index pair."""
        if self._tab0 is None:
            return self._kernel.apply_pair(
                int(self._codes[index0]), int(self._codes[index1])
            )
        if index0 >= self._filled or index1 >= self._filled:
            self.fill(profile)
        slot = index0 * self._cap + index1
        return int(self._tab0[slot]), int(self._tab1[slot])

    def block_posts(
        self,
        index0: np.ndarray,
        index1: np.ndarray,
        profile: StageProfile = DISABLED,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Post codes for index arrays in one gather; ``None`` if dropped."""
        if self._tab0 is None:
            return None
        self.fill(profile)
        slots = index0 * self._cap + index1
        return self._tab0.take(slots), self._tab1.take(slots)


class CompiledKernel:
    """Packed-code codecs plus the vectorized transition of one protocol."""

    __slots__ = (
        "protocol",
        "spec",
        "sizes",
        "strides",
        "num_codes",
        "universe",
        "_names",
        "_table",
    )

    def __init__(self, protocol: Protocol, spec: KernelSpec) -> None:
        self.protocol = protocol
        self.spec = spec
        self.universe = CodeUniverse(self)
        self._names = tuple(field.name for field in spec.fields)
        self.sizes = np.array(
            [field.size for field in spec.fields], dtype=np.int64
        )
        strides = np.ones(len(spec.fields), dtype=np.int64)
        total = 1
        for index, field in enumerate(spec.fields):
            strides[index] = total
            if total > _MAX_CODES // max(field.size, 1):
                raise ProtocolError(
                    f"kernel for {protocol.name!r} overflows the packed "
                    f"code space at field {field.name!r}"
                )
            total *= field.size
        self.strides = strides
        self.num_codes = total
        # Compact protocols are lowered to a full pair table right here:
        # one kernel evaluation over all C x C ordered pairs, then every
        # apply is a gather.
        self._table: tuple[np.ndarray, np.ndarray] | None = None
        if total <= TABLE_BOUND:
            codes = np.arange(total, dtype=np.int64)
            c0 = np.repeat(codes, total)
            c1 = np.tile(codes, total)
            post0, post1 = self._apply_fields(c0, c1)
            self._table = (post0, post1)

    # ------------------------------------------------------------------
    # codecs
    # ------------------------------------------------------------------

    def encode(self, state: State) -> int:
        """Packed int64 code of one state."""
        values = self.spec.to_fields(state)
        code = 0
        for value, stride, size in zip(
            values, self.strides.tolist(), self.sizes.tolist()
        ):
            if not 0 <= value < size:
                raise ProtocolError(
                    f"kernel for {self.protocol.name!r} packed a field "
                    f"value {value} outside [0, {size})"
                )
            code += value * stride
        return code

    def decode(self, code: int) -> State:
        """Inverse of :meth:`encode`."""
        values = [
            int((code // stride) % size)
            for stride, size in zip(
                self.strides.tolist(), self.sizes.tolist()
            )
        ]
        return self.spec.from_fields(values)

    def decode_columns(self, codes: np.ndarray) -> FieldColumns:
        """Struct-of-arrays view: one int64 column per declared field."""
        return {
            name: (codes // stride) % size
            for name, stride, size in zip(
                self._names, self.strides, self.sizes
            )
        }

    def encode_columns(self, columns: FieldColumns) -> np.ndarray:
        """Repack field columns into codes (inverse of decode_columns)."""
        code = np.zeros_like(columns[self._names[0]], dtype=np.int64)
        for name, stride in zip(self._names, self.strides):
            code += columns[name].astype(np.int64) * stride
        return code

    # ------------------------------------------------------------------
    # the transition
    # ------------------------------------------------------------------

    @property
    def table_backed(self) -> bool:
        """Whether the whole transition lives in a precomputed pair table."""
        return self._table is not None

    def _apply_fields(
        self, codes0: np.ndarray, codes1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        post0, post1 = self.spec.delta(
            self.decode_columns(codes0), self.decode_columns(codes1)
        )
        return self.encode_columns(post0), self.encode_columns(post1)

    def apply_codes(
        self, codes0: np.ndarray, codes1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Post codes for slot-aligned arrays of ordered pre-code pairs."""
        table = self._table
        if table is not None:
            slots = codes0 * self.num_codes + codes1
            return table[0].take(slots), table[1].take(slots)
        return self._apply_fields(codes0, codes1)

    def apply_pair(self, code0: int, code1: int) -> tuple[int, int]:
        """Scalar convenience over :meth:`apply_codes` (tests, probes)."""
        post0, post1 = self.apply_codes(
            np.array([code0], dtype=np.int64),
            np.array([code1], dtype=np.int64),
        )
        return int(post0[0]), int(post1[0])

    # ------------------------------------------------------------------
    # output features
    # ------------------------------------------------------------------

    def has_feature(self, name: str) -> bool:
        return name in self.spec.features

    def feature_values(self, name: str, codes: np.ndarray) -> np.ndarray:
        """Evaluate one spec-declared extractor over packed codes."""
        try:
            extractor = self.spec.features[name]
        except KeyError:
            raise ProtocolError(
                f"kernel for {self.protocol.name!r} declares no feature "
                f"{name!r}"
            ) from None
        return np.asarray(
            extractor(self.decode_columns(np.asarray(codes, dtype=np.int64))),
            dtype=np.int64,
        )
