import collections
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanforms import (
    DEFAULT_TOL,
    PAULIS,
    AForm,
    BasisLabel,
    BlochVector,
    ChanformsError,
    ChannelKind,
    ChannelSpec,
    DensityMatrix,
    InvalidMatrixError,
    KrausSet,
    NotUnitAxisError,
    OutsideBallError,
    ProbabilityRangeError,
    RankRangeError,
    apply_a,
    bloch_to_density,
    build_bit_flip_a,
    build_equatorial_projection_a,
    build_phase_flip_a,
    build_pin_a,
    build_transpose_a,
    build_unitary_a,
    canonical_decompose,
    channel_a,
    coefficient_matrix,
    cp_verdict,
    density_to_bloch,
    hermitian_eigendecompose,
    kraus_to_a,
    random_cp_channel,
    random_ncp_a,
    realign_a_to_b,
    rotation_unitary,
    standard_basis,
)
from chanforms import zoo
from chanforms.serialize import _make_channel, parse_channel_document
from conftest import random_density

PAULI = standard_basis(2, BasisLabel.PAULI_OVER_SQRT2)


def flip_kraus(p: float, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flip channel's operator pair {sqrt(p) I, sqrt(1-p) sigma}."""
    return (np.sqrt(p) * PAULIS[0], np.sqrt(1 - p) * sigma)


def sorted_desc(values) -> np.ndarray:
    return np.sort(np.asarray(values, dtype=float))[::-1]


def rank(eigenvalues, tol: float = 1e-9) -> int:
    """Number of eigenvalues with magnitude above ``tol``."""
    return int(np.sum(np.abs(eigenvalues) > tol))


def random_axis(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestUnitaryChannel:
    def test_zero_angle_is_identity(self):
        a = build_unitary_a((0, 0, 1), 0.0)
        assert np.abs(a.matrix - np.eye(4)).max() < 1e-15

    def test_z_pi_top_eigenvector(self):
        a = build_unitary_a((0, 0, 1), np.pi)
        eig = hermitian_eigendecompose(coefficient_matrix(a, PAULI).matrix)
        assert np.allclose(eig.eigenvalues, [2, 0, 0, 0], atol=1e-12)
        target = np.array([0, 0, 0, 1j])
        assert abs(abs(eig.eigenvectors[0] @ target.conj()) - 1.0) < 1e-12

    def test_pauli_traces(self):
        u = rotation_unitary((1, 0, 0), np.pi / 2)
        assert np.trace(u @ PAULIS[0]) == pytest.approx(2 * np.cos(np.pi / 4))
        assert np.trace(u @ PAULIS[1]) == pytest.approx(2j * np.sin(np.pi / 4))
        assert abs(np.trace(u @ PAULIS[2])) < 1e-15
        assert abs(np.trace(u @ PAULIS[3])) < 1e-15

    def test_coefficient_matrix_is_rank_one_outer_product(self, rng):
        for _ in range(5):
            axis, angle = random_axis(rng), rng.uniform(0, 2 * np.pi)
            a = build_unitary_a(axis, angle)
            x = np.concatenate(
                [[np.cos(angle / 2)], 1j * np.sin(angle / 2) * axis]
            )
            cm = coefficient_matrix(a, PAULI)
            assert np.abs(cm.matrix - 2 * np.outer(x, x.conj())).max() < 1e-12

    def test_action_is_conjugation(self, rng):
        axis, angle = random_axis(rng), 0.7
        u = rotation_unitary(axis, angle)
        a = build_unitary_a(axis, angle)
        rho = DensityMatrix(random_density(rng))
        out = apply_a(a, rho)
        assert np.abs(out.matrix - u @ rho.matrix @ u.conj().T).max() < 1e-12

    def test_non_unit_axis_rejected(self):
        with pytest.raises(NotUnitAxisError):
            build_unitary_a((1, 1, 0), 0.3)

    def test_nan_axis_rejected(self):
        axis = (float("nan"), 0.0, 0.0)
        with pytest.raises(NotUnitAxisError, match="axis norm nan"):
            ChannelSpec.unitary(axis, 1.0)
        with pytest.raises(NotUnitAxisError):
            rotation_unitary(axis, 1.0)
        with pytest.raises(NotUnitAxisError):
            build_unitary_a(axis, 1.0)

    @pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_angle_rejected_before_any_arithmetic(self, angle):
        # Under the suite's error::RuntimeWarning a cos(inf) warning would surface
        # instead of the typed error.
        message = f"^rotation angle {angle!r} is not finite$"
        with pytest.raises(InvalidMatrixError, match=message):
            ChannelSpec.unitary((0.0, 0.0, 1.0), angle)
        with pytest.raises(InvalidMatrixError, match=message):
            rotation_unitary((0.0, 0.0, 1.0), angle)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ChannelSpec.unitary((10**400, 0, 0), 1.0), NotUnitAxisError, "axis component is beyond the double range"),
        (lambda: ChannelSpec.unitary((0, 0, 1), 10**400), InvalidMatrixError, "rotation angle is beyond the double range"),
        (lambda: rotation_unitary((0, 0, -(10**400)), 1.0), NotUnitAxisError, "axis component is beyond the double range"),
        (lambda: rotation_unitary((0, 0, 1), -(10**400)), InvalidMatrixError, "rotation angle is beyond the double range"),
        (lambda: ChannelSpec.bit_flip(10**400), ProbabilityRangeError, "probability is beyond the double range"),
        (lambda: ChannelSpec.phase_flip(-(10**400)), ProbabilityRangeError, "probability is beyond the double range"),
        (lambda: BlochVector(0, 10**400, 0), OutsideBallError, "Bloch components must be finite"),
    ],
    ids=["unitary_axis", "unitary_angle", "rotation_axis", "rotation_angle", "bit_flip", "phase_flip", "bloch"],
)
def test_an_int_beyond_the_double_range_raises_the_entry_points_error(build, error, message):
    """A Python int such as 10**400 does not convert to a double: each entry point raises its
    own typed error, not the bare ``OverflowError`` of ``float`` or ``math.isfinite``."""
    with pytest.raises(error, match=f"^{message}$"):
        build()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ChannelSpec.bit_flip("0.5"), ProbabilityRangeError, "probability must be a real number, got '0.5'"),
        (lambda: ChannelSpec.bit_flip(b"0.5"), ProbabilityRangeError, "probability must be a real number, got b'0.5'"),
        (lambda: ChannelSpec.bit_flip(None), ProbabilityRangeError, "probability must be a real number, got None"),
        (lambda: ChannelSpec.unitary([1, 0, 0], "1.0"), InvalidMatrixError, "rotation angle must be a real number, got '1.0'"),
        (lambda: ChannelSpec.unitary([1, 0, 0], "x"), InvalidMatrixError, "rotation angle must be a real number, got 'x'"),
        (lambda: ChannelSpec.unitary(None, 1.0), NotUnitAxisError, "axis must be three real components, got None"),
        (lambda: rotation_unitary([1, 0, 0], "x"), InvalidMatrixError, "rotation angle must be a real number, got 'x'"),
        (lambda: rotation_unitary([1, 0], 1.0), NotUnitAxisError, "axis needs 3 components, got 2"),
        (lambda: BlochVector("a", 0, 0), OutsideBallError, "Bloch components must be real numbers, got 'a'"),
        (lambda: ChannelSpec.pin((0, 0, 0.5)), OutsideBallError, r"the pin map needs a BlochVector, got \(0, 0, 0.5\)"),
    ],
    ids=["p_str", "p_bytes", "p_none", "angle_numeric_str", "angle_str", "axis_none", "rotation_angle_str",
         "rotation_two_components", "bloch_str", "pin_tuple"],
)
def test_a_parameter_that_is_not_a_real_number_raises_the_entry_points_error(build, error, message):
    """Strings are not parsed as numbers, and None, a non-iterable axis or a bare triple for a Bloch
    vector raise the entry point's typed error, not a bare TypeError, ValueError, AttributeError or
    IndexError; a two-component axis no longer reads past its end."""
    with pytest.raises(error, match=f"^{message}$") as info:
        build()
    assert isinstance(info.value, ChanformsError)


class TestPinChannel:
    def test_depolarizing_pin_spectrum(self):
        w = canonical_decompose(build_pin_a(BlochVector(0, 0, 0)), PAULI).eigenvalues
        assert np.allclose(w, [0.5] * 4, atol=1e-12)

    def test_pure_pin_spectrum(self):
        w = canonical_decompose(build_pin_a(BlochVector(0, 0, 1)), PAULI).eigenvalues
        assert np.allclose(sorted_desc(w), [1, 1, 0, 0], atol=1e-12)

    def test_b_form_structure(self):
        p0 = BlochVector(0.6, 0, 0)
        b = realign_a_to_b(build_pin_a(p0))
        rho0 = bloch_to_density(p0).matrix
        assert np.abs(b.matrix - np.kron(rho0, np.eye(2))).max() < 1e-15

    def test_coefficient_matrix_closed_form(self):
        # frozen closed form: 1/2 * [[1, x, y, z], [x, 1, -iz, iy],
        #                            [y, iz, 1, -ix], [z, -iy, ix, 1]]
        x, y, z = 0.3, -0.4, 0.5
        cm = coefficient_matrix(build_pin_a(BlochVector(x, y, z)), PAULI)
        expected = 0.5 * np.array(
            [
                [1, x, y, z],
                [x, 1, -1j * z, 1j * y],
                [y, 1j * z, 1, -1j * x],
                [z, -1j * y, 1j * x, 1],
            ]
        )
        assert np.abs(cm.matrix - expected).max() < 1e-12

    def test_rank_four_inside_ball(self):
        decomp = canonical_decompose(build_pin_a(BlochVector(0.2, 0.3, 0.1)), PAULI)
        assert rank(decomp.eigenvalues) == 4

    def test_outside_ball_rejected(self):
        with pytest.raises(OutsideBallError):
            BlochVector(1.2, 0, 0)


class TestTransposeChannel:
    def test_matrix(self):
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert np.array_equal(build_transpose_a().matrix, expected)

    def test_involution(self, rng):
        a = build_transpose_a()
        rho = DensityMatrix(random_density(rng))
        once = DensityMatrix(apply_a(a, rho).matrix)
        twice = apply_a(a, once).matrix
        assert np.abs(twice - rho.matrix).max() < 1e-14

    def test_a_squared_is_identity(self):
        m = build_transpose_a().matrix
        assert np.array_equal(m @ m, np.eye(4))


class TestEquatorialProjection:
    def test_coefficient_matrix(self):
        cm = coefficient_matrix(build_equatorial_projection_a(), PAULI)
        assert np.abs(cm.matrix - 0.5 * np.diag([3, 1, 1, -1])).max() < 1e-12

    def test_bloch_action(self):
        out = apply_a(
            build_equatorial_projection_a(),
            bloch_to_density(BlochVector(0.2, -0.3, 0.9)),
        )
        got = density_to_bloch(DensityMatrix(out.matrix))
        assert np.abs(np.array([got.p1, got.p2, got.p3]) - [0.2, -0.3, 0.0]).max() < 1e-12

    def test_idempotent(self):
        m = build_equatorial_projection_a().matrix
        assert np.abs(m @ m - m).max() < 1e-15

    def test_b_spectrum(self):
        b = realign_a_to_b(build_equatorial_projection_a())
        w = hermitian_eigendecompose(b.matrix).eigenvalues
        assert np.allclose(w, [1.5, 0.5, 0.5, -0.5], atol=1e-12)


class TestFlipChannels:
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_bit_flip_closed_form_matches_kraus_route(self, p):
        analytic = build_bit_flip_a(p).matrix
        from_kraus = kraus_to_a(flip_kraus(p, PAULIS[1])).matrix
        assert np.abs(analytic - from_kraus).max() < 1e-14

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_phase_flip_closed_form_matches_kraus_route(self, p):
        analytic = build_phase_flip_a(p).matrix
        from_kraus = kraus_to_a(flip_kraus(p, PAULIS[3])).matrix
        assert np.abs(analytic - from_kraus).max() < 1e-14

    def test_bit_flip_probability_one_is_identity(self):
        assert np.array_equal(build_bit_flip_a(1.0).matrix, np.eye(4))

    def test_phase_flip_probability_one_is_identity(self):
        assert np.array_equal(build_phase_flip_a(1.0).matrix, np.eye(4))

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_spectra(self, p):
        expected = sorted_desc([2 * p, 2 * (1 - p), 0, 0])
        for build in (build_bit_flip_a, build_phase_flip_a):
            w = canonical_decompose(build(p), PAULI).eigenvalues
            assert np.abs(sorted_desc(w) - expected).max() < 1e-12

    def test_phase_flip_coefficient_placement(self):
        # the sigma_3-type operator carries the 2(1-p) weight
        cm = coefficient_matrix(build_phase_flip_a(0.3), PAULI)
        assert np.abs(cm.matrix - np.diag([0.6, 0, 0, 1.4])).max() < 1e-12

    def test_bit_flip_half_depolarizes_pole(self):
        out = apply_a(build_bit_flip_a(0.5), bloch_to_density(BlochVector(0, 0, 1)))
        got = density_to_bloch(DensityMatrix(out.matrix))
        assert np.abs([got.p1, got.p2, got.p3]).max() < 1e-12

    def test_phase_flip_action(self):
        out = apply_a(build_phase_flip_a(0.3), bloch_to_density(BlochVector(1, 0, 0)))
        got = density_to_bloch(DensityMatrix(out.matrix))
        assert np.abs(np.array([got.p1, got.p2, got.p3]) - [-0.4, 0, 0]).max() < 1e-12

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_probability_range(self, p):
        with pytest.raises(ProbabilityRangeError):
            build_bit_flip_a(p)
        with pytest.raises(ProbabilityRangeError):
            build_phase_flip_a(p)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_ranks(self, p):
        assert rank(canonical_decompose(build_bit_flip_a(p), PAULI).eigenvalues) == 2
        assert rank(canonical_decompose(build_phase_flip_a(p), PAULI).eigenvalues) == 2

    def test_unitary_rank_one(self):
        assert rank(canonical_decompose(build_unitary_a((0, 1, 0), 0.8), PAULI).eigenvalues) == 1


class TestRandomCpChannel:
    def test_rank_one_is_unitary(self):
        kraus = random_cp_channel(2, 1, seed=1)
        op = kraus.operators[0]
        assert np.abs(op @ op.conj().T - np.eye(2)).max() < 1e-12

    def test_full_rank_spectrum(self):
        a = kraus_to_a(random_cp_channel(2, 4, seed=42))
        w = canonical_decompose(a, PAULI).eigenvalues
        assert w.min() > -1e-10
        assert abs(w.sum() - 2.0) < 1e-10

    def test_qutrit_trace_identity(self):
        a = kraus_to_a(random_cp_channel(3, 2, seed=7))
        basis = standard_basis(3, BasisLabel.MATRIX_UNITS)
        w = canonical_decompose(a, basis).eigenvalues
        assert abs(w.sum() - 3.0) < 1e-10

    def test_completeness_tight(self):
        for seed in range(5):
            kraus = random_cp_channel(2, 4, seed=seed)
            total = sum(op.conj().T @ op for op in kraus.operators)
            assert np.abs(total - np.eye(2)).max() < 1e-12

    def test_deterministic_per_seed(self):
        a = random_cp_channel(2, 3, seed=9)
        b = random_cp_channel(2, 3, seed=9)
        for x, y in zip(a.operators, b.operators):
            assert np.array_equal(x, y)
        c = random_cp_channel(2, 3, seed=10)
        assert not np.array_equal(a.operators[0], c.operators[0])

    @pytest.mark.parametrize("rank", [0, 5])
    def test_rank_range(self, rank):
        with pytest.raises(RankRangeError):
            random_cp_channel(2, rank, seed=0)


class TestRandomNcp:
    def test_is_valid_and_negative(self):
        for seed in range(6):
            a = random_ncp_a(2, seed=seed)
            verdict = cp_verdict(a, PAULI)
            assert not verdict.is_cp
            assert verdict.min_eigenvalue < -0.05

    def test_qutrit(self):
        basis = standard_basis(3, BasisLabel.MATRIX_UNITS)
        a = random_ncp_a(3, seed=2)
        assert cp_verdict(a, basis).min_eigenvalue < -0.05

    def test_deterministic(self):
        assert np.array_equal(random_ncp_a(2, seed=5).matrix, random_ncp_a(2, seed=5).matrix)

    @pytest.mark.parametrize(
        "bound, message",
        [
            (float("nan"), "^min_negativity must be a finite number of at least 0, got nan$"),
            (float("inf"), "^min_negativity must be a finite number of at least 0, got inf$"),
            (-1.0, "^min_negativity must be a finite number of at least 0, got -1.0$"),
            (-0.5, "^min_negativity must be a finite number of at least 0, got -0.5$"),
            ("0.1", "^min_negativity must be a finite number of at least 0, got '0.1'$"),
            (10**400, "^min_negativity must be a finite number of at least 0, got 1000"),
            (1e300, "^no dynamical eigenvalue below -1e\\+300 within 64 doublings of the shift$"),
        ],
        ids=["nan", "inf", "minus_one", "minus_half", "str", "huge_int", "unreachable"],
    )
    def test_a_bound_that_is_not_a_reachable_non_negative_number_raises(self, bound, message):
        """Checked before any draw, except the unreachable one; a negative bound would let a CP map through."""
        with pytest.raises(InvalidMatrixError, match=message) as info:
            random_ncp_a(2, 0, bound)
        assert isinstance(info.value, ValueError) and isinstance(info.value, ChanformsError)

    def test_a_zero_bound_gives_a_map_with_a_negative_eigenvalue(self):
        for seed in range(6):
            assert cp_verdict(random_ncp_a(2, seed, 0.0), PAULI).min_eigenvalue < 0


class TestParameterSweeps:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0, 1, allow_nan=False))
    def test_flip_spectra_for_any_probability(self, p):
        expected = sorted_desc([2 * p, 2 * (1 - p), 0, 0])
        for build in (build_bit_flip_a, build_phase_flip_a):
            w = sorted_desc(canonical_decompose(build(p), PAULI).eigenvalues)
            assert np.abs(w - expected).max() < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
        ).filter(lambda t: t[0] ** 2 + t[1] ** 2 + t[2] ** 2 <= 1.0)
    )
    def test_pin_spectrum_anywhere_in_ball(self, p0):
        vec = BlochVector(*p0)
        w = sorted_desc(canonical_decompose(build_pin_a(vec), PAULI).eigenvalues)
        r = vec.norm
        expected = sorted_desc([(1 + r) / 2, (1 + r) / 2, (1 - r) / 2, (1 - r) / 2])
        assert np.abs(w - expected).max() < 1e-10


class TestNamedChannelInvariants:
    def named_channels(self):
        return {
            "unitary": build_unitary_a((0.6, 0, 0.8), 1.2),
            "pin": build_pin_a(BlochVector(0.3, -0.2, 0.4)),
            "transpose": build_transpose_a(),
            "projection": build_equatorial_projection_a(),
            "bit_flip": build_bit_flip_a(0.7),
            "phase_flip": build_phase_flip_a(0.6),
        }

    def test_verdicts(self):
        channels = self.named_channels()
        expected_cp = {
            "unitary": True,
            "pin": True,
            "transpose": False,
            "projection": False,
            "bit_flip": True,
            "phase_flip": True,
        }
        for name, a in channels.items():
            assert cp_verdict(a, PAULI).is_cp is expected_cp[name], name

    def test_ncp_minimums(self):
        assert cp_verdict(build_transpose_a(), PAULI).min_eigenvalue == pytest.approx(-1, abs=1e-10)
        assert cp_verdict(build_equatorial_projection_a(), PAULI).min_eigenvalue == pytest.approx(
            -0.5, abs=1e-10
        )

    def test_eigenvalue_sums(self):
        for name, a in self.named_channels().items():
            w = canonical_decompose(a, PAULI).eigenvalues
            assert abs(w.sum() - 2.0) < 1e-10, name


def _wire_spec(**channel) -> ChannelSpec:
    """The spec a channel document with this payload parses to."""
    return parse_channel_document(json.dumps({"format_version": "1", "channel": channel})).channel


AXIS = (0.6, 0.0, 0.8)
BLOCH = BlochVector(0.3, -0.2, 0.5)

# Each named kind: its classmethod spec, the bare constructor's loose arguments, and its wire payload.
FOUR_WAYS = {
    ChannelKind.UNITARY: (
        lambda: ChannelSpec.unitary(AXIS, 1.25),
        [{"axis": list(AXIS), "angle": np.float64(1.25)}, {"axis": np.array(AXIS), "angle": np.float32(1.25)}],
        {"axis": list(AXIS), "angle": 1.25},
    ),
    ChannelKind.PIN: (lambda: ChannelSpec.pin(BLOCH), [{"p0": BLOCH}], {"p0": [0.3, -0.2, 0.5]}),
    ChannelKind.TRANSPOSE: (ChannelSpec.transpose, [{}], {}),
    ChannelKind.EQUATORIAL_PROJECTION: (ChannelSpec.equatorial_projection, [{}], {}),
    ChannelKind.BIT_FLIP: (lambda: ChannelSpec.bit_flip(1.0), [{"p": 1}, {"p": np.float64(1.0)}, {"p": True}], {"p": 1}),
    ChannelKind.PHASE_FLIP: (lambda: ChannelSpec.phase_flip(0.25), [{"p": np.float16(0.25)}], {"p": 0.25}),
}

PARAMETERS = ("axis", "angle", "p0", "p", "matrix", "operators")


def kept(spec: ChannelSpec) -> dict:
    """Each parameter a spec keeps, as (type, value); a Bloch vector by its type and components,
    and an axis by the types of its components too."""
    out = {}
    for name in PARAMETERS:
        value = getattr(spec, name)
        if isinstance(value, BlochVector):
            value = tuple((type(x), x) for x in (value.p1, value.p2, value.p3))
        elif isinstance(value, tuple):
            value = tuple((type(x), x) for x in value)
        out[name] = (type(value), value)
    return out


class TestKindTable:
    """Every spec is built by its kind's builder, once, whatever route builds it."""

    @pytest.mark.parametrize("kind", list(FOUR_WAYS), ids=lambda k: k.value)
    def test_a_named_kind_keeps_the_same_values_built_four_ways(self, kind):
        make, loose, payload = FOUR_WAYS[kind]
        spec = make()
        specs = [ChannelSpec(kind=kind, **fields) for fields in loose]
        specs += [dataclasses.replace(spec), _wire_spec(kind=kind.value, **payload)]
        for other in specs:
            assert kept(other) == kept(spec)
            a, b = channel_a(other).matrix, channel_a(spec).matrix
            assert a.tobytes() == b.tobytes()
        if kind is ChannelKind.UNITARY:
            assert type(spec.angle) is float and spec.axis == AXIS
        if kind is ChannelKind.PIN:  # kept as given; the wire builds its own vector
            assert all(s.p0 is BLOCH for s in [spec, *specs[:-1]])

    def test_an_axis_iterator_is_read_once(self):
        spec = ChannelSpec.unitary(iter(AXIS), 1.25)
        assert kept(spec) == kept(ChannelSpec.unitary(AXIS, 1.25))

    def test_a_bare_spec_keeps_no_mutable_input(self):
        axis = np.array(AXIS)
        spec = ChannelSpec(kind=ChannelKind.UNITARY, axis=axis, angle=1.25)
        axis[0] = 7.0
        assert spec.axis == AXIS

    @pytest.mark.parametrize(
        "kind, fields, wire, error, message",
        [
            ("bit_flip", {"p": 1.5}, True, ProbabilityRangeError, "probability 1.5 outside [0, 1]"),
            ("phase_flip", {"p": "0.5"}, False, ProbabilityRangeError, "probability must be a real number, got '0.5'"),
            ("unitary", {"axis": [2.0, 0.0, 0.0], "angle": 1.0}, True, NotUnitAxisError,
             "axis norm 2 differs from 1 beyond tol 1e-09"),
            ("unitary", {"axis": [0.0, 0.0, 1.0], "angle": math.nan}, False, InvalidMatrixError,
             "rotation angle nan is not finite"),
            ("pin", {"p0": [0.0, 0.0, 0.5]}, None, OutsideBallError,
             "the pin map needs a BlochVector, got [0.0, 0.0, 0.5]"),
        ],
        ids=["p_1.5", "p_text", "axis_norm_2", "angle_nan", "pin_list"],
    )
    def test_a_bad_parameter_raises_alike_on_every_route(self, kind, fields, wire, error, message):
        """The classmethod and the bare constructor raise one class and message; the wire raises
        them with the payload's path.  ``wire`` is True where a document can carry the value, False
        where only the parsed-payload step can (a document's schema refuses text and NaN first),
        and None where the wire has no such value (it always builds the Bloch vector)."""
        kind = ChannelKind(kind)
        routes = [lambda: getattr(ChannelSpec, kind.value)(**fields), lambda: ChannelSpec(kind=kind, **fields)]
        for route in routes:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                route()
        if wire is not None:
            prefixed = f"^{re.escape('document.channel: ' + message)}$"
            with pytest.raises(error, match=prefixed):
                _make_channel({"kind": kind.value, **fields}, DEFAULT_TOL, "document.channel")
        if wire:
            with pytest.raises(error, match=prefixed):
                _wire_spec(kind=kind.value, **fields)

    @pytest.mark.parametrize("kind", list(FOUR_WAYS), ids=lambda k: k.value)
    def test_each_parameter_is_checked_once_per_spec(self, kind, monkeypatch):
        calls = collections.Counter()

        def counting(name):
            check = getattr(zoo, name)

            def counted(*args):
                calls[name] += 1
                return check(*args)

            monkeypatch.setattr(zoo, name, counted)

        counting("_require_unit_axis")
        counting("_require_probability")
        make, loose, payload = FOUR_WAYS[kind]
        spec = make()
        builds = [make, lambda: ChannelSpec(kind=kind, **loose[0]), lambda: dataclasses.replace(spec),
                  lambda: _wire_spec(kind=kind.value, **payload)]
        checks = {ChannelKind.UNITARY: ["_require_unit_axis"], ChannelKind.BIT_FLIP: ["_require_probability"],
                  ChannelKind.PHASE_FLIP: ["_require_probability"]}.get(kind, [])
        for build in builds:
            calls.clear()
            build()
            assert calls == collections.Counter(checks)

    def test_every_kind_names_its_builder(self):
        builders = [rule.build for rule in zoo._KINDS.values()]
        assert builders[:6] == [build_unitary_a, build_pin_a, build_transpose_a, build_equatorial_projection_a,
                                build_bit_flip_a, build_phase_flip_a]
        assert [b.func for b in builders[6:]] == [AForm, KrausSet]
        assert all(b.keywords == {"tol": math.inf} for b in builders[6:])
