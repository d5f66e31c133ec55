"""Grasp wrench LP: analytic cases, enumeration oracle, invariants."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.spatial import ConvexHull

from tandemgrip import simplexlp, wrench
from tandemgrip.config import data_text, shipped_calibration
from tandemgrip.errors import OffsetExceedsRadius, ParseError
from tandemgrip.simplexlp import _TOL, WarmStack, solve_lp, standard_form
from tandemgrip.vectors import _unit
from tandemgrip.wrench import (
    ActuationMode,
    Contact,
    ContactKind,
    ContactSet,
    GraspModelParams,
    GraspScenario,
    PullSolution,
    PullType,
    build_contacts,
    calibrate,
    predict_strength,
    predict_strengths,
    pull_direction_for,
    reference_from_csv,
    solve_pull,
    verify_witness,
    _tangent_frame,
)

Z = np.array([0.0, 0.0, 1.0])


def ieee_dot(a, b) -> float:
    """a0*b0 + a1*b1 (+ a2*b2) of two 2- or 3-vectors, in Python floats and in
    that order: the sum ``vectors._dot`` promises, computed without numpy."""
    a, b = [float(x) for x in a], [float(x) for x in b]
    s = a[0] * b[0] + a[1] * b[1]
    return s + a[2] * b[2] if len(a) == 3 else s


def ieee_norm(v) -> float:
    """``math.sqrt`` of ``ieee_dot(v, v)``: the norm ``vectors._norm`` promises."""
    return math.sqrt(ieee_dot(v, v))


def pad(position, cap, mu, sides=4):
    position = np.asarray(position, dtype=float)
    return Contact(
        position=position, kind=ContactKind.FINGER_PAD, normal_capacity=cap,
        tension_capacity=0.0, mu=mu, cone_sides=sides,
    )


def inward(c) -> np.ndarray:
    """A contact's inward unit normal, through ``ieee_norm``."""
    return -(c.position / ieee_norm(c.position))


def unit_vec(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def minkowski_sum(vertex_sets) -> np.ndarray:
    """Every sum of one vertex from each set, in ``itertools.product`` order
    and with the bytes of ``sum(combo)``: from 0.0 (so -0.0 sums to +0.0),
    adding one set at a time by broadcasting."""
    points = np.zeros((1, 6))
    for verts in vertex_sets:
        points = (points[:, None, :] + np.asarray(verts)[None, :, :]).reshape(-1, 6)
    return points


def enumeration_oracle(contacts: ContactSet, d) -> float:
    """Independent route: per-contact wrench polytope vertices, Minkowski sum,
    convex hull, then a ray cast from the origin along the negated pull wrench
    [d, 0] of a pull through the center.

    A pad's force set has one shared capacity over its cone-edge weights, so
    its vertices are {0} plus the saturated edges. A cup's set is the
    Minkowski sum of three independently capped pieces (tension segment,
    compression segment, shear polygon).
    """
    vertex_sets = []
    for c in contacts.contacts:
        p = c.position
        if c.kind is ContactKind.FINGER_PAD:
            verts = [np.zeros(6)]
            n = inward(c)
            t1, t2 = _tangent_frame(n)
            for j in range(c.cone_sides):
                ph = 2.0 * math.pi * j / c.cone_sides
                e = n + c.mu * (math.cos(ph) * t1 + math.sin(ph) * t2)
                verts.append(c.normal_capacity * np.concatenate([e, np.cross(p, e)]))
        else:
            tension = [np.zeros(6),
                       c.tension_capacity * np.concatenate([-Z, np.cross(p, -Z)])]
            compression = [np.zeros(6),
                           c.normal_capacity * np.concatenate([Z, np.cross(p, Z)])]
            shear = [np.zeros(6)]
            anchor = math.atan2(p[1], p[0])
            for j in range(c.cone_sides):
                ph = anchor + 2.0 * math.pi * j / c.cone_sides
                e = np.array([math.cos(ph), math.sin(ph), 0.0])
                shear.append(c.shear_capacity * np.concatenate([e, np.cross(p, e)]))
            verts = [a + b + s for a in tension for b in compression for s in shear]
        vertex_sets.append(verts)
    points = minkowski_sum(vertex_sets)
    d = np.asarray(d, float) / np.linalg.norm(d)
    w = np.concatenate([d, np.zeros(3)])
    # reduce to the affine span to keep qhull happy
    _, s, vt = np.linalg.svd(points - points.mean(axis=0), full_matrices=False)
    keep = s > 1e-8 * max(s[0], 1.0)
    basis = vt[keep]
    w_perp = w - basis.T @ (basis @ w)
    if np.linalg.norm(w_perp) > 1e-8:
        return 0.0  # the pull wrench leaves the attainable span
    proj = points @ basis.T
    w_proj = basis @ w
    try:
        hull = ConvexHull(proj)
    except Exception:
        hull = ConvexHull(proj, qhull_options="QJ")
    # each facet a.x <= b that the ray -t * w_proj leaves through caps t at b / (a.-w_proj)
    denom = hull.equations[:, :-1] @ -w_proj
    exits = denom > 1e-12
    alpha = np.min(-hull.equations[exits, -1] / denom[exits], initial=np.inf)
    return max(float(alpha), 0.0)


class TestBuildContacts:
    def test_dual_zero_offset(self):
        cs = build_contacts(GraspScenario(37.5, mode=ActuationMode.DUAL),
                            GraspModelParams())
        assert len(cs.contacts) == 6
        pads = [c for c in cs.contacts if c.kind is ContactKind.FINGER_PAD]
        assert len(pads) == 3
        for c in pads:
            assert c.position[2] == pytest.approx(0.0, abs=1e-12)  # equatorial

    def test_offset_latitude(self):
        cs = build_contacts(
            GraspScenario(37.5, fruit_offset=20.0, mode=ActuationMode.FINGERS),
            GraspModelParams(),
        )
        assert len(cs.contacts) == 3
        psi = math.asin(20.0 / 37.5)
        assert math.degrees(psi) == pytest.approx(32.23, abs=0.01)
        for c in cs.contacts:
            assert c.position[2] == pytest.approx(-37.5 * math.sin(psi), abs=1e-9)

    def test_offset_exceeds_radius(self):
        with pytest.raises(OffsetExceedsRadius):
            build_contacts(GraspScenario(37.5, fruit_offset=40.0), GraspModelParams())

    def test_contacts_on_sphere_unit_normals(self):
        cs = build_contacts(GraspScenario(40.0, fruit_offset=8.0), GraspModelParams())
        for c in cs.contacts:
            assert np.linalg.norm(c.position) == pytest.approx(40.0, abs=1e-6)


class TestAnalyticCases:
    def test_single_pad_opposing_pull(self):
        # normal exactly opposes the pull, no friction: alpha = capacity
        cs = ContactSet(37.5, (pad([0.0, 0.0, 37.5], cap=7.0, mu=0.0),))
        assert solve_pull(cs, Z).alpha == pytest.approx(7.0, abs=1e-9)

    def test_single_cup_tension(self):
        c = Contact(
            position=np.array([0.0, 0.0, -37.5]), kind=ContactKind.SUCTION_CUP,
            normal_capacity=60.0, tension_capacity=4.0, mu=0.0, cone_sides=8, shear_capacity=2.0,
        )
        cs = ContactSet(37.5, (c,))
        assert solve_pull(cs, Z).alpha == pytest.approx(4.0, abs=1e-9)

    def test_opposed_pads_friction_only(self):
        # two pads squeezing across the equator, pull along the axis:
        # each pad contributes mu * cap of friction
        mu, cap = 0.6, 9.0
        cs = ContactSet(37.5, (
            pad([37.5, 0.0, 0.0], cap, mu, sides=8),
            pad([-37.5, 0.0, 0.0], cap, mu, sides=8),
        ))
        assert solve_pull(cs, Z).alpha == pytest.approx(
            2.0 * mu * cap, rel=1e-6
        )

    def test_suction_only_axial_is_three_cups(self):
        model = GraspModelParams(suction_axial=4.0)
        strength = predict_strength(
            GraspScenario(37.5, mode=ActuationMode.SUCTION), model
        )
        assert strength == pytest.approx(12.0, rel=1e-9)

    def test_fingers_axial_closed_form(self):
        # equatorial pads with the downhill cone edge: 3 * cap * mu
        model = GraspModelParams(pad_force=7.4, mu_pad=0.9)
        strength = predict_strength(
            GraspScenario(37.5, mode=ActuationMode.FINGERS), model
        )
        assert strength == pytest.approx(3 * 7.4 * 0.9, rel=1e-9)


class TestOracleEquivalence:
    def test_minkowski_sum_matches_the_product_loop(self):
        rng = np.random.default_rng(2718)
        sets = [rng.normal(size=(k, 6)) for k in (2, 3, 4)]
        for verts in sets:
            verts[0] = 0.0
            verts[-1, ::2] = -0.0
        loop = np.array([sum(combo) for combo in itertools.product(*sets)])
        assert minkowski_sum(sets).tobytes() == loop.tobytes()
        assert np.signbit(loop).any()

    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(20240817)
        for trial in range(100):
            n_contacts = int(rng.integers(2, 4))
            contacts = []
            for _ in range(n_contacts):
                v = rng.normal(size=3)
                v = 37.5 * v / np.linalg.norm(v)
                contacts.append(pad(v, cap=float(rng.uniform(2.0, 20.0)),
                                    mu=float(rng.uniform(0.2, 1.0)), sides=4))
            cs = ContactSet(37.5, tuple(contacts))
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            lp = solve_pull(cs, d).alpha
            oracle = enumeration_oracle(cs, d)
            assert lp == pytest.approx(oracle, rel=0.02, abs=1e-6)

    def test_mixed_contacts_match_enumeration(self):
        # small pad+cup sets keep the Minkowski vertex count hull-friendly
        rng = np.random.default_rng(31415)
        for _ in range(10):
            contacts = [pad(37.5 * unit_vec(rng), cap=float(rng.uniform(3, 15)),
                            mu=float(rng.uniform(0.3, 1.0)), sides=4)]
            for lon in rng.choice([0.0, 120.0, 240.0], size=2, replace=False):
                az = math.radians(float(lon))
                beta = math.asin(21.0 / 37.5)
                pos = 37.5 * np.array([
                    math.sin(beta) * math.cos(az), math.sin(beta) * math.sin(az),
                    -math.cos(beta),
                ])
                contacts.append(Contact(
                    position=pos, kind=ContactKind.SUCTION_CUP, normal_capacity=15.0,
                    tension_capacity=float(rng.uniform(2, 6)), mu=0.0,
                    cone_sides=4, shear_capacity=float(rng.uniform(1, 4)),
                ))
            cs = ContactSet(37.5, tuple(contacts))
            d = unit_vec(rng)
            lp = solve_pull(cs, d).alpha
            oracle = enumeration_oracle(cs, d)
            assert lp == pytest.approx(oracle, rel=0.02, abs=2e-3)


class TestInvariants:
    def test_witness_verifies(self):
        model = shipped_calibration()
        rng = np.random.default_rng(5)
        for _ in range(20):
            scenario = GraspScenario(
                fruit_radius=float(rng.uniform(30, 45)),
                fruit_offset=float(rng.uniform(0, 15)),
                pull_angle=float(rng.uniform(0, 45)),
                mode=ActuationMode(rng.choice(["suction", "fingers", "dual"])),
            )
            cs = build_contacts(scenario, model)
            sol = solve_pull(cs, pull_direction_for(scenario))
            assert verify_witness(cs, sol) == []

    def test_capacity_monotonicity(self):
        base = GraspModelParams(8.0, 0.9, 4.0, 0.6)
        scenario = GraspScenario(37.5, fruit_offset=10.0, pull_angle=30.0,
                                 mode=ActuationMode.DUAL)
        s0 = predict_strength(scenario, base)
        for bumped in (
            GraspModelParams(10.0, 0.9, 4.0, 0.6),
            GraspModelParams(8.0, 1.1, 4.0, 0.6),
            GraspModelParams(8.0, 0.9, 5.0, 0.6),
            GraspModelParams(8.0, 0.9, 4.0, 0.8),
        ):
            assert predict_strength(scenario, bumped) >= s0 - 1e-9

    def test_threefold_symmetry(self):
        model = GraspModelParams(8.0, 0.9, 4.0, 0.6)
        cs = build_contacts(GraspScenario(37.5, mode=ActuationMode.DUAL), model)
        rng = np.random.default_rng(9)
        for _ in range(5):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            rot = 2.0 * math.pi / 3.0
            m = np.array([[math.cos(rot), -math.sin(rot), 0.0],
                          [math.sin(rot), math.cos(rot), 0.0],
                          [0.0, 0.0, 1.0]])
            a0 = solve_pull(cs, d).alpha
            a1 = solve_pull(cs, m @ d).alpha
            assert a1 == pytest.approx(a0, rel=1e-6, abs=1e-9)

    def test_mode_monotonicity(self):
        model = shipped_calibration()
        rng = np.random.default_rng(4)
        for _ in range(8):
            kw = dict(
                fruit_radius=float(rng.uniform(30, 45)),
                fruit_offset=float(rng.uniform(0, 18)),
                pull_angle=float(rng.uniform(0, 45)),
                pull_type=PullType(rng.choice(["axial", "rotational"])),
            )
            dual = predict_strength(GraspScenario(mode=ActuationMode.DUAL, **kw), model)
            single = max(
                predict_strength(GraspScenario(mode=ActuationMode.SUCTION, **kw), model),
                predict_strength(GraspScenario(mode=ActuationMode.FINGERS, **kw), model),
            )
            assert dual >= single - 1e-9


def pad_floor(c, f):
    # a pad pushes: its normal force is >= 0
    n = inward(c)
    return -float(f @ n), 0.0, -n


def pad_capacity(c, f):
    n = inward(c)
    return float(f @ n), c.normal_capacity, n


def friction_cone(c, f):
    n = inward(c)
    fn = float(f @ n)
    ft = f - fn * n
    return float(np.linalg.norm(ft)), c.mu * fn, ft / np.linalg.norm(ft)


def cup_tension(c, f):
    return -float(f[2]), c.tension_capacity, -Z


def cup_seat(c, f):
    return float(f[2]), c.normal_capacity, Z


def cup_shear(c, f):
    shear = f - f[2] * Z
    return float(np.linalg.norm(shear)), c.shear_capacity, shear / np.linalg.norm(shear)


WITNESS_CHECKS = ["pad normal force negative", "pad normal capacity exceeded",
                  "pad friction cone violated", "cup tension capacity exceeded",
                  "cup seat compression exceeded", "cup shear capacity exceeded",
                  "force balance residual", "moment balance residual"]
BALANCE = {"force balance residual", "moment balance residual"}


def failed_checks(problems):
    return {check for check in WITNESS_CHECKS if any(check in p for p in problems)}


class TestWitnessTolerance:
    """``verify_witness`` pins ``WITNESS_TOL``: a default dual grasp's witness
    with one quantity moved k x WITNESS_TOL x max(1, alpha) past a bound that
    binds there fails that check at k = 1.01 and passes whole at k = 0.99.
    A moved force also leaves a balance residual of that size, which must
    fail only alongside the check it moved past."""

    PAST, INSIDE = 1.01, 0.99

    @staticmethod
    def grasp(pull_type, zeroed=None):
        """The default dual grasp's contacts and witness; ``zeroed`` is a
        (contact, capacity field) set to 0 first, so that the bound binds."""
        scenario = GraspScenario(37.5, pull_type=pull_type)
        cs = build_contacts(scenario, GraspModelParams())
        if zeroed:
            i, name = zeroed
            cs = ContactSet(cs.fruit_radius, tuple(
                dataclasses.replace(c, **{name: 0.0}) if k == i else c
                for k, c in enumerate(cs.contacts)))
        sol = solve_pull(cs, pull_direction_for(scenario))
        assert verify_witness(cs, sol) == []
        return cs, sol, wrench.WITNESS_TOL * max(1.0, sol.alpha)

    @pytest.mark.parametrize("check,bound,pull_type,contact,zeroed", [
        ("pad normal force negative", pad_floor, PullType.AXIAL, 0, "normal_capacity"),
        ("pad normal capacity exceeded", pad_capacity, PullType.AXIAL, 0, None),
        ("pad friction cone violated", friction_cone, PullType.AXIAL, 0, None),
        ("cup tension capacity exceeded", cup_tension, PullType.AXIAL, 3, None),
        ("cup seat compression exceeded", cup_seat, PullType.ROTATIONAL, 3, "normal_capacity"),
        ("cup shear capacity exceeded", cup_shear, PullType.ROTATIONAL, 3, None),
    ])
    def test_contact_force(self, check, bound, pull_type, contact, zeroed):
        cs, sol, tol = self.grasp(pull_type, zeroed and (contact, zeroed))
        c, f = cs.contacts[contact], sol.forces[contact]
        value, limit, outward = bound(c, f)
        assert abs(value - limit) <= 1e-6 * tol   # the bound binds
        for k in (self.PAST, self.INSIDE):
            forces = list(sol.forces)
            forces[contact] = f + (limit + k * tol - value) * outward
            problems = verify_witness(cs, dataclasses.replace(sol, forces=tuple(forces)))
            failed = failed_checks(problems)
            if k < 1.0:
                assert problems == [], k
            else:
                assert check in failed and failed <= {check} | BALANCE, problems

    def test_force_balance(self):
        # a smaller alpha leaves the pull short of the contact forces
        cs, sol, tol = self.grasp(PullType.AXIAL)
        for k in (self.PAST, self.INSIDE):
            problems = verify_witness(cs, dataclasses.replace(sol, alpha=sol.alpha - k * tol))
            assert failed_checks(problems) == ({"force balance residual"} if k > 1.0 else set())

    def test_moment_balance(self):
        # an axial couple, +v on pad 0 and -v on pad 1: no net force, a pure moment
        cs, sol, tol = self.grasp(PullType.AXIAL)
        p0, p1 = cs.contacts[0].position, cs.contacts[1].position
        assert (p0 - p1)[2] == 0.0   # so the couple's moment is |p0 - p1| |v|
        for k in (self.PAST, self.INSIDE):
            v = k * tol * cs.fruit_radius / np.linalg.norm(p0 - p1) * Z
            forces = (sol.forces[0] + v, sol.forces[1] - v) + sol.forces[2:]
            problems = verify_witness(cs, dataclasses.replace(sol, forces=forces))
            assert failed_checks(problems) == ({"moment balance residual"} if k > 1.0 else set())


class TestCalibration:
    def test_fixed_point_dataset(self):
        # dataset rows generated by the model itself: zero residual, params hold
        start = GraspModelParams(8.0, 0.9, 4.0, 0.6)
        ref_rows = []
        from tandemgrip.wrench import ReferenceMeasurements, ReferenceRow
        for mode in (ActuationMode.SUCTION, ActuationMode.FINGERS, ActuationMode.DUAL):
            sc = GraspScenario(37.5, mode=mode)
            ref_rows.append(ReferenceRow(sc, predict_strength(sc, start), 0.5))
        result = calibrate(ReferenceMeasurements(tuple(ref_rows)), initial=start)
        assert result.mean_sq_rel_error < 1e-10
        assert result.params.pad_force == pytest.approx(start.pad_force, rel=0.02)

    def test_empty_reference_rejected(self):
        from tandemgrip.wrench import ReferenceMeasurements
        with pytest.raises(ValueError):
            calibrate(ReferenceMeasurements(()))

    def test_shipped_dataset_parses(self):
        ref = reference_from_csv(data_text("grasp_reference.csv"))
        assert len(ref.rows) == 27
        assert sum(r.authoritative for r in ref.rows) == 13

    @pytest.mark.parametrize("strength,stdev,name", [
        ("nan", "0.3", "strength"), ("inf", "0.3", "strength"),
        ("12.0", "nan", "stdev"), ("12.0", "inf", "stdev")])
    def test_non_finite_reference_value_rejected(self, strength, stdev, name):
        text = "\n".join([wrench.REFERENCE_CSV_HEADER,
                          "dual,0,0,axial,20.0,1.0,authoritative",
                          f"suction,0,0,axial,{strength},{stdev},authoritative"])
        with pytest.raises(ParseError, match=f"{name} must be finite, got .* row 3"):
            reference_from_csv(text)

    def test_negative_stdev_rejected(self):
        with pytest.raises(ValueError, match="stdev must be >= 0"):
            wrench.ReferenceRow(GraspScenario(37.5), 12.0, -1.0)
        text = "\n".join([wrench.REFERENCE_CSV_HEADER,
                          "dual,0,0,axial,20.0,1.0,authoritative",
                          "suction,0,0,axial,12,-1,authoritative"])
        with pytest.raises(ParseError, match="stdev must be >= 0, got -1.0 row 3"):
            reference_from_csv(text)

    @pytest.mark.parametrize("strength", ["0", "-3", "-0.0"])
    def test_non_positive_strength_names_its_row(self, strength):
        # the loss divides by each strength
        text = "\n".join([wrench.REFERENCE_CSV_HEADER,
                          f"suction,0,0,axial,{strength},0.3,authoritative",
                          "dual,0,0,axial,20.0,1.0,authoritative"])
        with pytest.raises(ParseError, match="strength must be > 0") as err:
            reference_from_csv(text)
        assert err.value.row == 2
        with pytest.raises(ValueError, match="strength must be > 0"):
            wrench.ReferenceRow(GraspScenario(37.5), float(strength), 1.0)

    def test_bad_row_names_its_physical_line(self):
        text = "\n".join([wrench.REFERENCE_CSV_HEADER,
                          "dual,0,0,axial,20.0,1.0,authoritative", "",
                          "suction,0,0,axial,12,-1,authoritative"])
        with pytest.raises(ParseError, match="stdev must be >= 0, got -1.0 row 4"):
            reference_from_csv(text)

    @pytest.mark.parametrize("source", ["authorative", "Authoritative", "approx", ""])
    def test_unknown_source_rejected(self, source):
        # any other value would silently drop the row from the default fit
        text = "\n".join([wrench.REFERENCE_CSV_HEADER,
                          "dual,0,0,axial,20.0,1.0,approximate",
                          f"suction,0,0,axial,12.0,0.3,{source}"])
        with pytest.raises(ParseError, match=f"source must be .* got {source!r} row 3"):
            reference_from_csv(text)

    def test_repeated_column_rejected(self):
        # DictReader keeps the last of two equal names: 99 N would be read
        text = "\n".join([wrench.REFERENCE_CSV_HEADER + ",strength_N",
                          "suction,0,0,axial,12.0,0.3,authoritative,99.0"])
        with pytest.raises(ParseError, match="duplicate column name 'strength_N'"):
            reference_from_csv(text)

    @pytest.mark.parametrize("extra", ["99", " x", "0.0,"])
    def test_cell_past_the_header_names_its_physical_line(self, extra):
        text = "\n".join([wrench.REFERENCE_CSV_HEADER,
                          "dual,0,0,axial,20.0,1.0,authoritative", "",
                          f"suction,0,0,axial,12.0,0.3,authoritative,{extra}"])
        with pytest.raises(ParseError, match="more cells than the 7 header columns row 4"):
            reference_from_csv(text)
        # blank cells past the header are no data, as in stats
        text = text.replace(f",{extra}", ", ,")
        assert len(reference_from_csv(text).rows) == 2

    def test_source_values(self):
        rows = ["suction,0,0,axial,12.0,0.3,authoritative",
                "suction,5,0,axial,12.0,0.3,approximate",
                "suction,10,0,axial,12.0,0.3"]   # no source in this row
        ref = reference_from_csv("\n".join([wrench.REFERENCE_CSV_HEADER, *rows]))
        assert [r.authoritative for r in ref.rows] == [True, False, True]
        # without the column every row is authoritative
        header = wrench.REFERENCE_CSV_HEADER.rsplit(",", 1)[0]
        ref = reference_from_csv("\n".join([header, "suction,0,0,axial,12.0,0.3"]))
        assert [r.authoritative for r in ref.rows] == [True]

    def test_one_cold_strength_per_reference_row(self, monkeypatch):
        # the search runs warm; only the residual pass solves cold, once per
        # row of the dataset, fitted or not, in one predict_strengths call
        calls, single = [], []
        real = wrench.predict_strengths

        def counted(queries, model):
            calls.append([scenario for scenario, _ in queries])
            return real(queries, model)
        monkeypatch.setattr(wrench, "predict_strengths", counted)
        monkeypatch.setattr(wrench, "predict_strength", lambda *args: single.append(args))
        reference = reference_from_csv(data_text("grasp_reference.csv"))
        calibrate(reference, authoritative_only=True)
        assert calls == [[r.scenario for r in reference.rows]]
        assert single == []


def search_objectives():
    """Objectives for the search: smooth, tied, plateaued, kinked, stepped."""
    def rosenbrock(x):
        if len(x) == 1:
            return float((x[0] - 1.0) ** 2)
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def plateau(x):   # the 1e9 wall calibrate returns outside its region
        return 1e9 if np.any(x < 0.0) or x[0] > 2.0 else float(np.sum((x - 0.7) ** 2))

    def kinked(x):
        return float(np.sum(np.abs(x - 0.3)))

    def stepped(x):   # flat steps: many equal values, so argsort ties
        return float(np.sum(np.floor(4.0 * x)))

    return (rosenbrock, plateau, kinked, stepped)


class TestNelderMead:
    """``wrench.minimize`` is scipy's Nelder-Mead, byte for byte."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("max_iter,xatol,fatol", [(400, 1e-5, 1e-8), (7, 1e-4, 1e-4),
                                                      (40, 1e-3, 1e-6)])
    def test_matches_scipy(self, dim, max_iter, xatol, fatol):
        rng = np.random.default_rng(dim)
        for fun in search_objectives():
            for _ in range(4):
                x0 = rng.normal(size=dim)
                x0[rng.random(dim) < 0.3] = 0.0   # zero coordinates step by 0.00025
                want = scipy_minimize(fun, x0, method="Nelder-Mead",
                                      options={"maxiter": max_iter, "xatol": xatol,
                                               "fatol": fatol})
                got = wrench.minimize(fun, x0, max_iter=max_iter, xatol=xatol, fatol=fatol)
                assert got.x.tobytes() == want.x.tobytes()
                assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
                assert got.nit == want.nit

    def test_all_zero_start_and_tied_simplex(self):
        for x0 in (np.zeros(3), np.zeros(1), np.array([0.0, 1.0, 0.0, 2.0])):
            for fun in (lambda x: 1e9, lambda x: float(np.floor(np.sum(x)))):
                want = scipy_minimize(fun, x0, method="Nelder-Mead",
                                      options={"maxiter": 30, "xatol": 1e-5, "fatol": 1e-8})
                got = wrench.minimize(fun, x0, max_iter=30, xatol=1e-5, fatol=1e-8)
                assert got.x.tobytes() == want.x.tobytes()
                assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
                assert got.nit == want.nit

    @pytest.mark.parametrize("max_iter", [0, -5, True, False, 2.0, "400", None])
    def test_max_iter_must_be_an_int_of_at_least_one(self, max_iter):
        # 0 and -5 once returned the starting point as the fit
        with pytest.raises(ValueError, match="max_iter must be an int >= 1"):
            calibrate(reference_from_csv(data_text("grasp_reference.csv")), max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [1, np.int64(1)])
    def test_one_iteration_keeps_the_best_first_vertex(self, max_iter):
        result = calibrate(reference_from_csv(data_text("grasp_reference.csv")),
                           authoritative_only=True, max_iter=max_iter)
        assert result.params == GraspModelParams()

    def test_calibrate_searches_through_module_name(self, monkeypatch):
        # calibrate looks the search up as wrench.minimize at call time, so
        # a caller can wrap it (the benchmark does, to cut the fit into pieces)
        calls = []

        def wrapped(fun, x0, *args, **kwargs):
            calls.append(kwargs)
            return real(fun, x0, *args, **kwargs)
        real = wrench.minimize
        monkeypatch.setattr(wrench, "minimize", wrapped)
        sc = GraspScenario(37.5, mode=ActuationMode.SUCTION)
        start = GraspModelParams(8.0, 0.9, 4.0, 0.6)
        rows = (wrench.ReferenceRow(sc, predict_strength(sc, start), 0.5),)
        calibrate(wrench.ReferenceMeasurements(rows), initial=start, max_iter=3)
        assert calls == [{"max_iter": 3, "xatol": 1e-5, "fatol": 1e-8}]


def cold_fit(rows, start=GraspModelParams()):
    """The search ``calibrate`` makes, from the same start with the same
    options and loss, but with every strength cold, from ``predict_strengths``
    (byte for byte ``predict_strength``'s)."""
    def objective(x):
        pad, mu, suc, kap = (float(v) for v in x)
        if pad <= 0 or mu <= 0 or suc <= 0 or not 0.0 < kap <= 1.0:
            return 1e9
        params = GraspModelParams(pad, mu, suc, kap)
        err = 0.0
        preds = predict_strengths([(row.scenario, (0, 1, 2)) for row in rows], params)
        for pred, row in zip(preds, rows):
            err += ((pred - row.strength) / row.strength) ** 2
        return err / len(rows)

    x0 = np.array([start.pad_force, start.mu_pad, start.suction_axial, start.shear_fraction])
    return wrench.minimize(objective, x0, max_iter=400, xatol=1e-5, fatol=1e-8)


def assert_same_fit(result, cold):
    p = result.params
    assert (np.array([p.pad_force, p.mu_pad, p.suction_axial, p.shear_fraction]).tobytes()
            == cold.x.tobytes())
    assert np.float64(result.mean_sq_rel_error).tobytes() == np.float64(cold.fun).tobytes()


def _strength_lp(scenario, model, cup_indices=(0, 1, 2)):
    """Single-build oracle: the pull LP (c, a_eq, b_eq, a_ub, b_ub) of one
    strength query, built from its own ``Contact`` objects, or None when no
    contact is present."""
    contacts = build_contacts(scenario, model, cup_indices).contacts
    if not contacts:
        return None
    lp = wrench._pull_lp(contacts, _unit(pull_direction_for(scenario)))
    return tuple(a[0] for a in lp.refresh(model))


def pull_lp_of(a, b, cost):
    """The pull LP (c, a_eq, b_eq, a_ub, b_ub) of one standard-form pull LP:
    six balance rows, then one capacity row per slack column."""
    n = a.shape[1] - (a.shape[0] - 6)
    return cost[:n], a[:6, :n], b[:6], a[6:, :n], b[6:]


def stacked_standard_form(lp):
    """``standard_form`` of one pull LP, as a stack of one problem."""
    return tuple(v[0] for v in standard_form(*(np.asarray(v)[None] for v in lp)))


def fresh_kernel(a, b, cost, bases):
    """The basis kernel on a stack of standard-form problems, its matrix step
    taken afresh from the bases: where each basis is accepted, x (x_B
    scattered to the basic columns) and the matrix step (dual verdict, B^-1)."""
    state = simplexlp._basis_state(cost, bases, a.shape[1])
    inverse = simplexlp._basis_inverse(a, cost, state)
    ok, x_b = simplexlp._rhs_step(b, inverse)
    x = np.zeros(a.shape[::2])
    x[np.arange(len(a))[:, None], state[1]] = x_b
    return ok, x, inverse


def full_path(lp, form, bases, restart):
    """Every row's alpha and basis through the full path, row by row: the
    kernel with a fresh matrix step, then where it rejects, ``restart`` from
    the rejected basis re-checked alone, and a cold solve where both fail."""
    a, b, cost = form
    ok, x, (_, b_inv) = fresh_kernel(a, b, cost, bases)
    want, new = x[:, lp[0].shape[1] - 1], list(bases)
    for k in np.flatnonzero(~ok):
        basis = np.isfinite(b_inv[k]).all() and restart(a[k], b[k], cost[k], bases[k], b_inv[k])
        if basis:
            ok_k, x_k, _ = fresh_kernel(a[k:k + 1], b[k:k + 1], cost[k:k + 1], [basis])
            if ok_k[0]:
                want[k], new[k] = x_k[0, lp[0].shape[1] - 1], basis
                continue
        res = solve_lp(*(v[k] for v in lp))
        want[k], new[k] = res.x[-1], res.basis
    return want, new


class TestWarmCalibration:
    """``calibrate`` restarts each layout's stack of LPs from their previous
    optimal bases; its fit is still the cold fit, byte for byte."""

    @pytest.fixture(scope="class")
    def authoritative_fit(self):
        """The 13-row fit, with every row's alpha of every layout pass also
        solved cold; each row is warm unless the pass solved it cold."""
        calls, gaps, cold = [], [], [0]
        real_pass, real_cold = WarmStack.values, simplexlp.solve_lp

        def checked(warm, matrix_moved):
            before = cold[0]
            alphas = real_pass(warm, matrix_moved)
            solved_cold = cold[0] - before
            calls.extend([True] * (len(alphas) - solved_cold) + [False] * solved_cold)
            a, b, cost = warm.form
            for k, got in enumerate(alphas):
                alpha = solve_lp(*pull_lp_of(a[k], b[k], cost[k])).x[-1]
                gaps.append(abs(got - alpha) / max(1.0, alpha))
            return alphas

        def counted(*args):
            cold[0] += 1
            return real_cold(*args)

        reference = reference_from_csv(data_text("grasp_reference.csv"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(WarmStack, "values", checked)
            mp.setattr(simplexlp, "solve_lp", counted)
            result = calibrate(reference, authoritative_only=True)
        return reference, result, calls, gaps

    def test_warm_alphas_match_cold(self, authoritative_fit):
        _, _, calls, gaps = authoritative_fit
        assert sum(calls) >= 0.9 * len(calls) > 0
        assert max(gaps) <= 1e-10

    def test_authoritative_rows_fit_as_cold(self, authoritative_fit):
        reference, result, _, _ = authoritative_fit
        assert_same_fit(result, cold_fit([r for r in reference.rows if r.authoritative]))

    def test_all_rows_fit_as_cold(self, fresh_calibration):
        reference = reference_from_csv(data_text("grasp_reference.csv"))
        assert_same_fit(fresh_calibration, cold_fit(reference.rows))

    def test_residuals_are_cold_strengths(self, fresh_calibration):
        reference = reference_from_csv(data_text("grasp_reference.csv"))
        assert len(fresh_calibration.residuals) == len(reference.rows) == 27
        for row, r in zip(reference.rows, fresh_calibration.residuals):
            pred = predict_strength(row.scenario, fresh_calibration.params)
            assert r.scenario == row.scenario
            assert np.float64(r.predicted).tobytes() == np.float64(pred).tobytes()
            rel = (pred - row.strength) / row.strength
            assert np.float64(r.rel_error).tobytes() == np.float64(rel).tobytes()

    @pytest.mark.parametrize("authoritative_only", [True, False])
    def test_cold_only_where_the_old_basis_is_neither(self, monkeypatch, authoritative_only):
        # after a row's first solve, a rejected basis restarts and the
        # restart is accepted; only a basis that is neither primal nor dual
        # feasible is solved cold again. The restart path sees the rejected
        # rows only.
        first, neither, total, cold, restarts = [], [], [0], [0], []
        real_pass, real_cold, real_restart = WarmStack.values, simplexlp.solve_lp, simplexlp._restart

        def rows(warm, matrix_moved):
            a, b, cost = warm.form
            bases = list(warm.bases)
            ok, _, (_, b_inv) = fresh_kernel(a, b, cost, bases)
            tried_before, cold_before = len(restarts), cold[0]
            alphas = real_pass(warm, matrix_moved)
            total[0] += len(alphas)
            # restarts run from exactly the rejected bases that have an inverse
            rejected = np.flatnonzero(~ok).tolist()
            tried = [k for k in rejected if np.isfinite(b_inv[k]).all()]
            assert [basis for basis, _ in restarts[tried_before:]] == [bases[k] for k in tried]
            # a rejected row goes cold unless its restart is accepted
            accepted = {k for k, (_, new) in zip(tried, restarts[tried_before:]) if new is not None}
            gone_cold = [k for k in rejected if k not in accepted]
            assert cold[0] - cold_before == len(gone_cold)
            for k in gone_cold:
                if bases[k] == ():
                    first.append(k)
                    continue
                basis = list(bases[k])
                mat = a[k][:, basis]
                primal = np.all(np.linalg.solve(mat, b[k]) >= -_TOL)
                dual = np.all(cost[k] - np.linalg.solve(mat.T, cost[k][basis]) @ a[k] <= _TOL)
                neither.append(not primal and not dual)
            return alphas

        def restart(a, b, cost, basis, b_inv):
            new = real_restart(a, b, cost, basis, b_inv)
            restarts.append((basis, new))
            return new

        def counted(*args):
            cold[0] += 1
            return real_cold(*args)

        monkeypatch.setattr(WarmStack, "values", rows)
        monkeypatch.setattr(simplexlp, "solve_lp", counted)
        monkeypatch.setattr(simplexlp, "_restart", restart)
        reference = reference_from_csv(data_text("grasp_reference.csv"))
        calibrate(reference, authoritative_only=authoritative_only)
        fitted = sum(r.authoritative or not authoritative_only for r in reference.rows)
        assert len(first) == fitted
        assert all(neither)
        assert cold[0] == fitted + len(neither)
        # every rejected basis that is not "neither" restarts, and its restart is accepted
        failed = sum(new is None for _, new in restarts)
        assert failed == len(neither) and len(restarts) - failed > 0
        assert (cold[0], len(restarts) - failed) == {13: (13, 37), 27: (40, 339)}[fitted]
        assert total[0] - cold[0] >= 0.9 * total[0]


class TestRowLps:
    """``calibrate`` builds each layout's fitted rows as one pull-LP stack
    once and then rewrites only its pad columns and capacities."""

    def test_refreshed_lps_equal_fresh_builds(self, monkeypatch):
        reference = reference_from_csv(data_text("grasp_reference.csv"))
        rng = np.random.default_rng(89)
        points = [np.array([rng.uniform(2.0, 30.0), rng.uniform(0.05, 2.0),
                            rng.uniform(0.5, 10.0), rng.uniform(0.05, 1.0)])
                  for _ in range(6)]
        point = [None]   # index of the point under evaluation
        stacked, cold = [], []   # (point, the LP's bytes) of every stacked row, cold solve

        def lp_bytes(lp):
            return tuple(a.tobytes() for a in lp)

        def spy_pass(warm, matrix_moved):
            alphas = real_pass(warm, matrix_moved)   # calibrate refreshed the LPs in place
            a, b, cost = warm.form
            stacked.extend((point[0], lp_bytes((a[k], b[k], cost[k]))) for k in range(len(a)))
            return alphas

        def spy_cold(*args):
            cold.append((point[0], lp_bytes(args)))
            return real_cold(*args)

        def visit(fun, x0, **options):
            # the search visits the points in turn; the fit ends at the
            # shipped parameters, so the residual pass after it succeeds
            for k, x in enumerate(points):
                point[0] = k
                fun(np.copy(x))
            point[0] = None
            p = shipped_calibration()
            return wrench.SearchResult(
                x=np.array([p.pad_force, p.mu_pad, p.suction_axial, p.shear_fraction]),
                fun=0.0, nit=1)

        real_pass, real_cold = WarmStack.values, simplexlp.solve_lp
        monkeypatch.setattr(WarmStack, "values", spy_pass)
        monkeypatch.setattr(simplexlp, "solve_lp", spy_cold)
        monkeypatch.setattr(wrench, "minimize", visit)
        calibrate(reference)
        assert len(cold) < len(stacked) == len(points) * len(reference.rows)
        for k, x in enumerate(points):
            params = GraspModelParams(*(float(v) for v in x))
            lps = [_strength_lp(row.scenario, params) for row in reference.rows]
            want = [lp_bytes(stacked_standard_form(lp)) for lp in lps]
            got = [lp for p, lp in stacked if p == k]
            assert sorted(got) == sorted(want), k
            # every row is solved cold at the first point, and later only
            # where its basis neither holds nor restarts
            solved_cold = [lp for p, lp in cold if p == k]
            assert all(lp in map(lp_bytes, lps) for lp in solved_cold), k
            if k == 0:
                assert sorted(solved_cold) == sorted(map(lp_bytes, lps))

    def test_one_stack_per_layout_in_the_search(self, monkeypatch):
        reference = reference_from_csv(data_text("grasp_reference.csv"))
        searching, stacks, built = [False], [], []

        def stack(scenarios, cup_indices, model):
            if searching[0]:
                stacks.append((scenarios, cup_indices))
            return real_stack(scenarios, cup_indices, model)

        def counted(*args, **kwargs):
            if searching[0]:
                built.append(args[0])
            return real_build(*args, **kwargs)

        def search(*args, **kwargs):
            searching[0] = True
            try:
                return real_minimize(*args, **kwargs)
            finally:
                searching[0] = False

        real_stack, real_build = wrench._strength_stack, wrench.build_contacts
        real_minimize = wrench.minimize
        monkeypatch.setattr(wrench, "_strength_stack", stack)
        monkeypatch.setattr(wrench, "build_contacts", counted)
        monkeypatch.setattr(wrench, "minimize", search)
        calibrate(reference, authoritative_only=True)
        rows = [r.scenario for r in reference.rows if r.authoritative]
        assert len(rows) == 13
        assert sorted(len(s) for s, _ in stacks) == [3, 4, 6]
        modes = [{s.mode for s in scenarios} for scenarios, _ in stacks]
        assert all(len(m) == 1 for m in modes) and set.union(*modes) == set(ActuationMode)
        assert all(cups == [(0, 1, 2)] * len(s) for s, cups in stacks)
        placed = [s for scenarios, _ in stacks for s in scenarios]
        assert sorted(placed, key=repr) == sorted(rows, key=repr)
        assert built == []


class TestKeptMatrixStep:
    """``calibrate`` keeps each layout's basis arrays until a basis changes,
    and its matrix step (``simplexlp._basis_inverse``) also while the stack's
    matrix holds: the layouts with pads (fingers, dual) run the step at every
    evaluation, the suction layout once per basis change, and every pass
    gives what the full path gives, byte for byte."""

    @pytest.mark.parametrize("authoritative_only", [True, False])
    def test_every_evaluation_matches_the_full_kernel(self, monkeypatch, authoritative_only):
        # each pass, recomputed through the full path: the matrix step from
        # the bases, the kernel with restarts, a cold solve where both fail;
        # the pass restarts exactly the bases that the kernel rejects
        real, real_restart = WarmStack.values, simplexlp._restart
        passes, kept, kept_rejected, restarted = [0], [0], [0], []

        def checked(warm, matrix_moved):
            bases, step = list(warm.bases), warm.inverse
            restarted.clear()
            got = real(warm, matrix_moved)
            a, b, cost = warm.form
            ok, _, inverse = fresh_kernel(a, b, cost, bases)
            rejected = np.flatnonzero(~ok)
            assert restarted == [bases[k] for k in rejected if np.isfinite(inverse[1][k]).all()]
            if step is not None and not matrix_moved:   # the kept step
                assert [v.tobytes() for v in step] == [v.tobytes() for v in inverse]
                kept[0] += 1
                kept_rejected[0] += bool(rejected.size)
            want, new = full_path(warm.lp, warm.form, bases, real_restart)
            assert np.array(got).tobytes() == want.tobytes()
            assert warm.bases == new
            passes[0] += 1
            return got

        def restart(a, b, cost, basis, b_inv):
            restarted.append(basis)
            return real_restart(a, b, cost, basis, b_inv)

        monkeypatch.setattr(WarmStack, "values", checked)
        monkeypatch.setattr(simplexlp, "_restart", restart)
        calibrate(reference_from_csv(data_text("grasp_reference.csv")),
                  authoritative_only=authoritative_only)
        # every pass is checked, the kept step is used, and some bases it
        # gives fail on the new capacities
        assert passes[0] > 600 and kept[0] > 100 and kept_rejected[0] > 0

    def test_matrix_step_once_per_basis_change_without_pads(self, monkeypatch):
        steps, evals, changes, last = {}, {}, {}, {}   # by the layout's row count
        forms = []   # each layout's standard-form matrix

        def step(a, cost, state):
            # the whole stack's step; a re-check of restarted rows takes a copy of theirs
            if any(a is f for f in forms):
                steps[a.shape[1]] = steps.get(a.shape[1], 0) + 1
            return real_step(a, cost, state)

        def counted(warm, matrix_moved):
            m = warm.form[0].shape[1]
            if not any(warm.form[0] is f for f in forms):
                forms.append(warm.form[0])
            evals[m] = evals.get(m, 0) + 1
            changes[m] = changes.get(m, 0) + (last.get(m) != list(warm.bases))
            last[m] = list(warm.bases)
            return real_pass(warm, matrix_moved)

        real_step, real_pass = simplexlp._basis_inverse, WarmStack.values
        monkeypatch.setattr(simplexlp, "_basis_inverse", step)
        monkeypatch.setattr(WarmStack, "values", counted)
        calibrate(reference_from_csv(data_text("grasp_reference.csv")), authoritative_only=True)
        # standard-form rows: 6 balance rows and the capacity rows of 3 pads,
        # 3 cups (3 rows each) or both
        fingers, suction, dual = 6 + 3, 6 + 9, 6 + 12
        assert set(evals) == {fingers, suction, dual} and len(forms) == 3
        assert steps[fingers] == evals[fingers] and steps[dual] == evals[dual]
        assert steps[suction] == changes[suction] < evals[suction] / 4
        assert steps[suction] == 17

    def test_capacity_change_past_the_basis_restarts(self, monkeypatch):
        # a smaller shear fraction leaves the angled suction rows' bases
        # dual feasible (the matrix did not move) but drives some x_B below
        # -tol: those rows restart through the full path, as without the
        # kept matrix step
        reference = reference_from_csv(data_text("grasp_reference.csv"))
        rows = [r.scenario for r in reference.rows if r.scenario.mode is ActuationMode.SUCTION]
        model = shipped_calibration()
        stack = wrench._strength_stack(rows, [(0, 1, 2)] * len(rows), model)
        warm = WarmStack(*stack.lp, -1)
        stack.lp = warm.lp
        lp = stack.refresh(model)
        warm.values(False)   # every row cold: the bases
        bases = list(warm.bases)
        assert bases == [solve_lp(*(v[k] for v in lp)).basis for k in range(len(rows))]
        warm.values(False)   # the bases hold, and the matrix step is kept
        inverse = warm.inverse
        assert inverse[0].all()
        std = warm.form
        lp = stack.refresh(dataclasses.replace(model, shear_fraction=0.3))
        assert [v.tobytes() for v in fresh_kernel(*std, bases)[2]] == [
            v.tobytes() for v in inverse]
        short = np.flatnonzero(((inverse[1] @ std[1][:, :, None])[:, :, 0] < -_TOL).any(axis=1))
        assert 0 < len(short) < len(rows)

        restarted, steps, cold = [], [], []
        real_restart, real_step, real_cold = (simplexlp._restart, simplexlp._basis_inverse,
                                              simplexlp.solve_lp)

        def restart(a, b, cost, basis, b_inv):
            restarted.append(basis)
            return real_restart(a, b, cost, basis, b_inv)

        def step(a, *args):
            steps.append(a is std[0])
            return real_step(a, *args)

        def counted(*args):
            cold.append(args)
            return real_cold(*args)
        monkeypatch.setattr(simplexlp, "_restart", restart)
        monkeypatch.setattr(simplexlp, "_basis_inverse", step)
        monkeypatch.setattr(simplexlp, "solve_lp", counted)
        got = warm.values(False)
        # the kept step served the whole stack; only the re-check took a step
        assert steps == [False]
        assert restarted == [bases[k] for k in short]
        assert cold == []
        assert [k for k in range(len(rows)) if warm.bases[k] != bases[k]] == list(short)
        want, new = full_path(lp, std, bases, real_restart)
        assert (np.array(got).tobytes(), warm.bases) == (want.tobytes(), new)
        for k in range(len(rows)):
            alpha = solve_lp(*(v[k] for v in lp)).x[-1]
            assert abs(got[k] - alpha) <= 1e-10 * max(1.0, alpha)


def loop_build_contacts(scenario, model, cone_sides=wrench.DEFAULT_CONE_SIDES,
                        cup_indices=(0, 1, 2)):
    """Reference placement: one contact at a time."""
    r = scenario.fruit_radius
    if scenario.fruit_offset > r:
        raise OffsetExceedsRadius("offset exceeds radius")
    contacts = []
    if scenario.mode in (ActuationMode.FINGERS, ActuationMode.DUAL):
        psi = math.asin(scenario.fruit_offset / r)
        for lon in wrench.FINGER_LONGITUDES_DEG:
            az = math.radians(lon)
            rhat = np.array([math.cos(az), math.sin(az), 0.0])
            pos = r * (math.cos(psi) * rhat - math.sin(psi) * Z)
            contacts.append(Contact(
                position=pos, kind=ContactKind.FINGER_PAD, normal_capacity=model.pad_force,
                tension_capacity=0.0, mu=model.mu_pad, cone_sides=cone_sides))
    if scenario.mode in (ActuationMode.SUCTION, ActuationMode.DUAL):
        ring = min(wrench.CUP_RING_MM, 0.95 * r)
        beta = math.asin(ring / r)
        for i in cup_indices:
            az = math.radians(wrench.CUP_LONGITUDES_DEG[i])
            rhat = np.array([math.cos(az), math.sin(az), 0.0])
            pos = r * (math.sin(beta) * rhat - math.cos(beta) * Z)
            contacts.append(Contact(
                position=pos, kind=ContactKind.SUCTION_CUP, normal_capacity=wrench.CUP_BACKING_N,
                tension_capacity=model.suction_axial, mu=0.0, cone_sides=cone_sides,
                shear_capacity=model.shear_fraction * model.suction_axial))
    return ContactSet(fruit_radius=r, contacts=tuple(contacts))


def loop_tangent_frame(n):
    """Reference tangent frame of one normal, its z part a dot with +z."""
    t1 = -Z + ieee_dot(Z, n) * n
    if ieee_norm(t1) < 1e-12:
        t1 = np.array([1.0, 0.0, 0.0]) - n[0] * n
    t1 = t1 / ieee_norm(t1)
    return t1, np.cross(n, t1)


def loop_lp_columns(contacts):
    """Reference column builder: one generator and one np.cross per column,
    each pad's normal through ``inward``."""
    cols, caps, owner = [], [], []
    nv = 0
    for ci, c in enumerate(contacts):
        p = c.position
        if c.kind is ContactKind.FINGER_PAD:
            n = inward(c)
            t1, t2 = loop_tangent_frame(n)
            idx = []
            for j in range(c.cone_sides):
                ph = 2.0 * math.pi * j / c.cone_sides
                e = n + c.mu * (math.cos(ph) * t1 + math.sin(ph) * t2)
                cols.append(np.concatenate([e, np.cross(p, e)]))
                owner.append(ci)
                idx.append(nv)
                nv += 1
            caps.append((idx, c.normal_capacity))
        else:
            cols.append(np.concatenate([-Z, np.cross(p, -Z)]))
            owner.append(ci)
            caps.append(([nv], c.tension_capacity))
            nv += 1
            cols.append(np.concatenate([Z, np.cross(p, Z)]))
            owner.append(ci)
            caps.append(([nv], c.normal_capacity))
            nv += 1
            anchor = math.atan2(p[1], p[0])
            idx = []
            for j in range(c.cone_sides):
                ph = anchor + 2.0 * math.pi * j / c.cone_sides
                e = np.array([math.cos(ph), math.sin(ph), 0.0])
                cols.append(np.concatenate([e, np.cross(p, e)]))
                owner.append(ci)
                idx.append(nv)
                nv += 1
            caps.append((idx, c.shear_capacity))
    return np.array(cols), caps, owner


CUP_SUBSETS = [c for k in range(4) for c in itertools.combinations(range(3), k)]


def random_queries(seed, count):
    """(scenario, cup_indices) queries over every mode, cup subset and pull,
    radii across ``FRUIT_RADIUS_RANGE_MM`` and offsets of 0, a random
    fraction of the radius and the radius itself (where the pads sit on the
    axis and their tangent frame falls back to +x)."""
    rng = np.random.default_rng(seed)
    lo, hi = wrench.FRUIT_RADIUS_RANGE_MM
    queries = []
    for i in range(count):
        radius = float(np.exp(rng.uniform(math.log(lo), math.log(hi))))
        scenario = GraspScenario(
            fruit_radius=radius,
            fruit_offset=(0.0, float(rng.uniform(0, radius)), radius)[i // 3 % 3],
            pull_angle=float(rng.uniform(0, 90)),
            pull_type=PullType.AXIAL if rng.random() < 0.7 else PullType.ROTATIONAL,
            mode=list(ActuationMode)[i % 3],
        )
        queries.append((scenario, CUP_SUBSETS[int(rng.integers(len(CUP_SUBSETS)))]))
    return queries


def layout_chunks(queries, size):
    """The queries in chunks of at most ``size`` of one layout, as
    ``predict_strengths`` groups them."""
    groups = {}
    for scenario, cups in queries:
        key = (scenario.mode, 0 if scenario.mode is ActuationMode.FINGERS else len(cups))
        groups.setdefault(key, []).append((scenario, cups))
    return [members[i:i + size] for members in groups.values()
            for i in range(0, len(members), size)]


class TestBatchedPull:
    def test_columns_match_loop_builder(self):
        rng = np.random.default_rng(41)
        model = shipped_calibration()
        for scenario, cups in random_queries(41, 150):
            contacts = loop_build_contacts(scenario, model, int(rng.integers(3, 12)), cups).contacts
            if not contacts:
                continue
            ref_cols, ref_caps, ref_owner = loop_lp_columns(contacts)
            lp = wrench._pull_lp(contacts, Z)
            cols, caps = lp.lp[1][0, :, :-1].T, lp.lp[4][0].tolist()
            assert cols.tobytes() == ref_cols.tobytes()
            assert lp.owner == ref_owner
            assert [([j for j, r in enumerate(lp.cap_row) if r == k], cap)
                    for k, cap in enumerate(caps)] == ref_caps

    def test_predict_strengths_match_one_at_a_time(self, monkeypatch):
        model = shipped_calibration()
        queries = random_queries(47, 240)
        monkeypatch.setattr(wrench, "LP_BATCH", 7)   # several batches per layout
        got = predict_strengths(queries, model)
        ref = [predict_strength(s, model, cup_indices=cups) for s, cups in queries]
        assert np.array(got).tobytes() == np.array(ref).tobytes()

    def test_predict_strength_builds_no_contacts(self, monkeypatch):
        # one query is predict_strengths' stack of one: no Contact objects,
        # no ContactSet, and the same values and errors
        def refuse(*args, **kwargs):
            raise AssertionError("predict_strength built contact objects")
        monkeypatch.setattr(wrench, "build_contacts", refuse)
        monkeypatch.setattr(wrench, "ContactSet", refuse)
        model = shipped_calibration()
        queries = random_queries(48, 30) + [(GraspScenario(37.5, mode=ActuationMode.SUCTION), ())]
        assert {s.mode for s, _ in queries} == set(ActuationMode)
        got = [predict_strength(s, model, cup_indices=cups) for s, cups in queries]
        assert np.array(got).tobytes() == np.array(predict_strengths(queries, model)).tobytes()
        assert got[-1] == 0.0
        with pytest.raises(OffsetExceedsRadius):
            predict_strength(GraspScenario(37.5, fruit_offset=40.0), model)
        with pytest.raises(ValueError, match="suction cups need positive tension"):
            predict_strength(GraspScenario(37.5, mode=ActuationMode.SUCTION),
                             GraspModelParams(suction_axial=0.0))


class TestStackedBuild:
    """``predict_strengths`` places the contacts and builds the pull LPs of
    a batch as one stack; each is the build of its query alone, byte for
    byte (``.tobytes()``, since ``np.array_equal`` lets -0.0 == 0.0 pass)."""

    @pytest.mark.parametrize("size", [1, 7, wrench.LP_BATCH])
    def test_stacked_placement_matches_loop(self, size):
        model = shipped_calibration()
        for chunk in layout_chunks(random_queries(size, 300), size):
            positions, kinds = wrench._place(*map(list, zip(*chunk)))
            for k, (scenario, cups) in enumerate(chunk):
                ref = loop_build_contacts(scenario, model, cup_indices=cups).contacts
                assert kinds == tuple(c.kind for c in ref)
                assert positions[k].tobytes() == np.array([c.position for c in ref]).tobytes()

    @pytest.mark.parametrize("size", [1, 7, wrench.LP_BATCH])
    def test_stacked_lps_match_single_builds(self, size):
        model = shipped_calibration()
        for chunk in layout_chunks(random_queries(size + 100, 300), size):
            lp = wrench._strength_stack(*map(list, zip(*chunk)), model)
            if lp is None:
                assert not any(_strength_lp(s, model, cups) for s, cups in chunk)
                continue
            stack = lp.refresh(model)
            for k, (scenario, cups) in enumerate(chunk):
                one = _strength_lp(scenario, model, cups)
                assert [a[k].tobytes() for a in stack] == [a.tobytes() for a in one]
                cols, _, _ = loop_lp_columns(
                    loop_build_contacts(scenario, model, cup_indices=cups).contacts)
                assert stack[1][k, :, :-1].T.tobytes() == cols.tobytes()

    def test_norm_and_dot_are_in_order_sums(self):
        rng = np.random.default_rng(12)
        v = rng.normal(size=(6, 4000, 3))
        v *= np.array([1.0, 1e-150, 1e150, 1e-310, 1e-160, 1e153])[:, None, None]
        v[rng.random(v.shape) < 0.2] = 0.0
        v[rng.random(v.shape) < 0.2] *= -1.0          # signed zeros among them
        v[0, :8] = [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [5e-324, 0.0, -5e-324],
                    [1e-308, 2e-308, -3e-308], [1e150, 1e150, 1e150], [3.0, 4.0, 0.0],
                    [-1e-150, 1e-150, 0.0], [1.0, -0.0, 1e-300]]
        want = np.array([[ieee_norm(x) for x in row] for row in v])
        assert wrench._norm(v).tobytes() == want.tobytes()
        want = np.array([[ieee_dot(Z, x) for x in row] for row in v])
        assert wrench._dot(Z, v).tobytes() == want.tobytes()
        want = np.array([[ieee_norm(x[:2]) for x in row] for row in v])
        assert wrench._norm(v[..., :2]).tobytes() == want.tobytes()
        # no leading zero: the dot with +z keeps the sign of an all -0.0 row
        assert [np.signbit(wrench._dot(Z, v[0, k])) for k in (0, 1)] == [False, True]

    def test_offset_exceeding_radius_raises_from_batch(self):
        model = shipped_calibration()
        for mode in ActuationMode:
            bad = GraspScenario(37.5, fruit_offset=40.0, mode=mode)
            with pytest.raises(OffsetExceedsRadius):
                predict_strength(bad, model)
            queries = [(GraspScenario(37.5, mode=mode), (0, 1)), (bad, (0, 1))]
            with pytest.raises(OffsetExceedsRadius, match="fruit_offset 40.0 mm exceeds"):
                predict_strengths(queries, model)

    def test_placed_contacts_lie_on_their_spheres(self):
        # what ContactSet checks of a hand-built set holds for every placement
        queries = random_queries(23, 600)
        assert {s.fruit_offset == s.fruit_radius for s, _ in queries} == {True, False}
        for chunk in layout_chunks(queries, wrench.LP_BATCH):
            positions, _ = wrench._place(*map(list, zip(*chunk)))
            radii = np.array([s.fruit_radius for s, _ in chunk])[:, None]
            assert np.all(np.abs(np.linalg.norm(positions, axis=2) - radii) <= 1e-9 * radii)

    def test_cup_tension_checked_on_the_stack(self):
        model = GraspModelParams(suction_axial=0.0)
        scenario = GraspScenario(37.5, mode=ActuationMode.SUCTION)
        for strength in (lambda: predict_strength(scenario, model),
                         lambda: predict_strengths([(scenario, (0, 2))], model)):
            with pytest.raises(ValueError, match="suction cups need positive tension"):
                strength()


class TestNonFinite:
    # a bool or a string once passed (True as a 1 mm fruit) or escaped as a
    # TypeError; numpy scalars are numbers
    @pytest.mark.parametrize("field", ["fruit_radius", "fruit_offset", "pull_angle"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "30", None, 1j])
    def test_scenario_rejects(self, field, value):
        kwargs = {"fruit_radius": 37.5, "fruit_offset": 0.0, "pull_angle": 0.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GraspScenario(**kwargs)

    @pytest.mark.parametrize("value", [np.float64(30.0), np.float32(30.0), np.int64(30)])
    def test_scenario_takes_numpy_scalars(self, value):
        s = GraspScenario(value, fruit_offset=value, pull_angle=value)
        assert (s.fruit_radius, s.fruit_offset, s.pull_angle) == (30.0, 30.0, 30.0)

    @pytest.mark.parametrize("radius", [0.5, 1000.5, 1e-300, 1e300])
    def test_scenario_rejects_radius_outside_range(self, radius):
        with pytest.raises(ValueError, match=r"fruit_radius must be in \[1, 1000\] mm"):
            GraspScenario(fruit_radius=radius)

    @pytest.mark.parametrize("field", ["pad_force", "mu_pad", "suction_axial",
                                       "shear_fraction"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, True, False, "18"])
    def test_model_params_reject(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GraspModelParams(**{field: value})

    def test_witness_reports_nonfinite_alpha(self):
        cs = ContactSet(37.5, (pad([0.0, 0.0, -37.5], 10.0, 0.5),))
        sol = PullSolution(math.nan, (np.zeros(3),), Z)
        assert verify_witness(cs, sol)

    def test_witness_reports_nonfinite_force(self):
        cs = ContactSet(37.5, (pad([0.0, 0.0, -37.5], 10.0, 0.5),))
        sol = PullSolution(0.0, (np.array([math.nan, 0.0, 0.0]),), Z)
        assert verify_witness(cs, sol)


def dual_set_with(contact, field, value):
    """The default dual grasp's contact set (pads 0-2, cups 3-5) with one
    contact's field, or with ``contact`` None the radius, set to ``value``."""
    cs = build_contacts(GraspScenario(37.5), GraspModelParams())
    if contact is None:
        return ContactSet(**{field: value, "contacts": cs.contacts})
    return ContactSet(cs.fruit_radius, tuple(
        dataclasses.replace(c, **{field: value}) if k == contact else c
        for k, c in enumerate(cs.contacts)))


class TestContactSetChecks:
    """``ContactSet`` checks a hand-built contact set: each case here would
    otherwise solve to a wrong strength, or to 0 N with no witness problem."""

    @pytest.mark.parametrize("contact,field,value,message", [
        (None, "fruit_radius", math.nan, "fruit_radius must be finite"),
        (0, "position", np.array([math.nan, 0.0, 0.0]), "position_x must be finite"),
        (4, "position", np.array([0.0, math.inf, 0.0]), "position_y must be finite"),
        (0, "mu", math.nan, "mu must be finite"),
        (0, "mu", -0.5, "capacities and mu must be >= 0"),
        (0, "normal_capacity", math.inf, "normal_capacity must be finite"),
        (1, "normal_capacity", -1.0, "capacities and mu must be >= 0"),
        (3, "tension_capacity", math.nan, "tension_capacity must be finite"),
        (3, "shear_capacity", -math.inf, "shear_capacity must be finite"),
        (5, "shear_capacity", -1.0, "capacities and mu must be >= 0"),
        (0, "cone_sides", 0, "cone_sides must be an int >= 3, got 0"),
        (3, "cone_sides", 2, "cone_sides must be an int >= 3, got 2"),
        (1, "cone_sides", 8.0, "cone_sides must be an int >= 3, got 8.0"),
        (0, "kind", "finger_pad", "kind must be a ContactKind, got 'finger_pad'"),
        (0, "position", np.array([37.5 + 2e-6, 0.0, 0.0]), "position not on the sphere"),
        (1, "tension_capacity", 1.0, "finger pads cannot carry tension"),
        (4, "tension_capacity", 0.0, "suction cups need positive tension capacity"),
    ])
    def test_rejects_what_gives_a_wrong_strength(self, contact, field, value, message):
        with pytest.raises(ValueError, match=message):
            dual_set_with(contact, field, value)

    def test_accepts_zero_capacities_and_rounding(self):
        for contact, field, value in [(0, "normal_capacity", 0.0), (0, "mu", 0.0),
                                      (3, "shear_capacity", 0.0), (3, "cone_sides", 3),
                                      (3, "cone_sides", np.int64(3)),
                                      (0, "position", np.array([37.5 + 5e-7, 0.0, 0.0]))]:
            assert dual_set_with(contact, field, value).contacts


class TestQueryChecks:
    """A scenario, a pull direction and a cup set are checked where they enter:
    each case here once solved to a wrong strength or to 0 N, or failed with an
    untyped error."""

    @pytest.mark.parametrize("field,value,message", [
        # solved as an axial pull: 37.18 N where a rotational one holds 22.71 N
        ("pull_type", "rotational", "pull_type must be a PullType, got 'rotational'"),
        ("mode", "dual", "mode must be an ActuationMode, got 'dual'"),
        ("mode", PullType.AXIAL, "mode must be an ActuationMode"),
    ])
    def test_scenario_enums_are_enums(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            GraspScenario(37.5, **{field: value})

    @pytest.mark.parametrize("direction", [
        [0.0, 0.0, 0.0], [math.nan, 0.0, 1.0], [math.inf, 0.0, 0.0],
        [1e200, 1e200, 0.0],   # its norm is past the float range
        [0.0, 1.0], [[0.0, 0.0, 1.0]],
    ])
    def test_pull_direction_has_finite_nonzero_norm(self, direction):
        contacts = build_contacts(GraspScenario(37.5), shipped_calibration())
        with pytest.raises(ValueError, match="pull direction must be a 3-vector"):
            solve_pull(contacts, direction)
        assert solve_pull(contacts, [0.0, 0.0, 2.0]).alpha > 0.0

    @pytest.mark.parametrize("cups", [
        (0, 0, 1),      # held -0.0 N
        (-1, 0, 1),     # wrapped to cup 2: 13.35 N
        (0, 1, 1, 2),   # four cups
        (5,),           # an IndexError
        (0.0, 1.0), (True, False), ("0",),
        (2, True),          # numpy reads a bool among ints as one: held 0 N
        (True, False, 2),   # 13.35 N
        (np.True_, 2),
    ])
    def test_cup_indices_are_distinct_ints_in_range(self, cups):
        model = shipped_calibration()
        # a good cup set of the same size (while there is one) shares the batch
        good = (2, 0, 1)[:len(cups)]
        for mode in (ActuationMode.SUCTION, ActuationMode.DUAL):
            scenario = GraspScenario(37.5, mode=mode)
            for query in (lambda: build_contacts(scenario, model, cups),
                          lambda: predict_strength(scenario, model, cups),
                          lambda: predict_strengths([(scenario, cups)] * 2, model),
                          lambda: predict_strengths([(scenario, good), (scenario, cups)], model),
                          lambda: predict_strengths([(scenario, cups), (scenario, good)], model)):
                with pytest.raises(ValueError, match="cup indices must be distinct ints in 0..2"):
                    query()

    @pytest.mark.parametrize("cups", [1, None, np.int64(2), iter((0, 1, 2))])
    def test_cups_that_are_no_sequence_fail_as_one_query(self, cups):
        # predict_strengths once failed them with a bare TypeError of its grouping
        model = shipped_calibration()
        for mode in (ActuationMode.SUCTION, ActuationMode.DUAL):
            scenario = GraspScenario(37.5, mode=mode)
            for query in (lambda: predict_strength(scenario, model, cups),
                          lambda: predict_strengths([(scenario, cups)], model),
                          lambda: predict_strengths([(scenario, (0, 1, 2)), (scenario, cups)],
                                                    model)):
                with pytest.raises(ValueError, match="cup indices must be distinct ints in 0..2"):
                    query()
        # fingers place no cups, so their cups are not read
        fingers = GraspScenario(37.5, mode=ActuationMode.FINGERS)
        assert predict_strengths([(fingers, cups)], model) == [predict_strength(fingers, model, cups)]

    def test_one_bad_cup_set_fails_its_batch(self):
        scenario = GraspScenario(37.5, mode=ActuationMode.SUCTION)
        with pytest.raises(ValueError, match=r"got \[\(0, 1\), \(1, 1\)\]"):
            predict_strengths([(scenario, (0, 1)), (scenario, (1, 1))], shipped_calibration())
