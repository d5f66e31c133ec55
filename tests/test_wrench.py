"""Grasp wrench LP: analytic cases, enumeration oracle, invariants."""

import itertools
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from tandemgrip import wrench
from tandemgrip.config import data_text, shipped_calibration
from tandemgrip.errors import OffsetExceedsRadius
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
    max_resistible_pull,
    predict_strength,
    predict_strengths,
    pull_wrench_for,
    reference_from_csv,
    solve_pull,
    solve_pull_batch,
    verify_witness,
    _lp_columns,
    _tangent_frame,
)

Z = np.array([0.0, 0.0, 1.0])


def pad(position, cap, mu, sides=4):
    position = np.asarray(position, dtype=float)
    return Contact(
        position=position, normal=-position / np.linalg.norm(position),
        kind=ContactKind.FINGER_PAD, normal_capacity=cap, tension_capacity=0.0,
        mu=mu, cone_sides=sides,
    )


def unit_vec(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def enumeration_oracle(contacts: ContactSet, d, app) -> float:
    """Independent route: per-contact wrench polytope vertices, Minkowski sum,
    convex hull, then a ray cast from the origin along the negated pull wrench.

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
            t1, t2 = _tangent_frame(c.normal)
            for j in range(c.cone_sides):
                ph = 2.0 * math.pi * j / c.cone_sides
                e = c.normal + c.mu * (math.cos(ph) * t1 + math.sin(ph) * t2)
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
    points = np.array([sum(combo) for combo in itertools.product(*vertex_sets)])
    d = np.asarray(d, float) / np.linalg.norm(d)
    w = np.concatenate([d, np.cross(np.asarray(app, float), d)])
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
    alpha = np.inf
    for eq in hull.equations:
        a, b = eq[:-1], -eq[-1]
        denom = float(a @ (-w_proj))
        if denom > 1e-12:
            alpha = min(alpha, b / denom)
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
            assert np.linalg.norm(c.normal) == pytest.approx(1.0, abs=1e-9)


class TestAnalyticCases:
    def test_single_pad_opposing_pull(self):
        # normal exactly opposes the pull, no friction: alpha = capacity
        cs = ContactSet(37.5, (pad([0.0, 0.0, 37.5], cap=7.0, mu=0.0),))
        assert max_resistible_pull(cs, Z, np.zeros(3)) == pytest.approx(7.0, abs=1e-9)

    def test_single_cup_tension(self):
        c = Contact(
            position=np.array([0.0, 0.0, -37.5]), normal=Z.copy(),
            kind=ContactKind.SUCTION_CUP, normal_capacity=60.0,
            tension_capacity=4.0, mu=0.0, cone_sides=8, shear_capacity=2.0,
        )
        cs = ContactSet(37.5, (c,))
        assert max_resistible_pull(cs, Z, np.zeros(3)) == pytest.approx(4.0, abs=1e-9)

    def test_opposed_pads_friction_only(self):
        # two pads squeezing across the equator, pull along the axis:
        # each pad contributes mu * cap of friction
        mu, cap = 0.6, 9.0
        cs = ContactSet(37.5, (
            pad([37.5, 0.0, 0.0], cap, mu, sides=8),
            pad([-37.5, 0.0, 0.0], cap, mu, sides=8),
        ))
        assert max_resistible_pull(cs, Z, np.zeros(3)) == pytest.approx(
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
            lp = max_resistible_pull(cs, d, np.zeros(3))
            oracle = enumeration_oracle(cs, d, np.zeros(3))
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
                    position=pos, normal=-pos / np.linalg.norm(pos),
                    kind=ContactKind.SUCTION_CUP, normal_capacity=15.0,
                    tension_capacity=float(rng.uniform(2, 6)), mu=0.0,
                    cone_sides=4, shear_capacity=float(rng.uniform(1, 4)),
                ))
            cs = ContactSet(37.5, tuple(contacts))
            d = unit_vec(rng)
            lp = max_resistible_pull(cs, d, np.zeros(3))
            oracle = enumeration_oracle(cs, d, np.zeros(3))
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
            d, app = pull_wrench_for(scenario)
            sol = solve_pull(cs, d, app)
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
            a0 = max_resistible_pull(cs, d, np.zeros(3))
            a1 = max_resistible_pull(cs, m @ d, np.zeros(3))
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


def loop_lp_columns(contacts):
    """Reference column builder: one generator and one np.cross per column."""
    cols, caps, owner = [], [], []
    nv = 0
    for ci, c in enumerate(contacts):
        p = c.position
        if c.kind is ContactKind.FINGER_PAD:
            t1, t2 = _tangent_frame(c.normal)
            idx = []
            for j in range(c.cone_sides):
                ph = 2.0 * math.pi * j / c.cone_sides
                e = c.normal + c.mu * (math.cos(ph) * t1 + math.sin(ph) * t2)
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


def random_queries(seed, count):
    """(scenario, cup_indices) queries over every mode, cup subset and pull."""
    rng = np.random.default_rng(seed)
    queries = []
    for i in range(count):
        scenario = GraspScenario(
            fruit_radius=float(rng.uniform(20, 50)),
            fruit_offset=float(rng.uniform(0, 12)),
            pull_angle=float(rng.uniform(0, 90)),
            pull_type=PullType.AXIAL if rng.random() < 0.7 else PullType.ROTATIONAL,
            mode=list(ActuationMode)[i % 3],
        )
        cups = tuple(int(k) for k in sorted(rng.choice(3, int(rng.integers(0, 4)),
                                                       replace=False)))
        queries.append((scenario, cups))
    return queries


class TestBatchedPull:
    def test_columns_match_loop_builder(self):
        rng = np.random.default_rng(41)
        model = shipped_calibration()
        for scenario, cups in random_queries(41, 150):
            contacts = build_contacts(scenario, model, int(rng.integers(3, 12)), cups).contacts
            if not contacts:
                continue
            ref_cols, ref_caps, ref_owner = loop_lp_columns(contacts)
            cols, cap_row, caps, owner = _lp_columns(contacts)
            assert cols.tobytes() == ref_cols.tobytes()
            assert owner == ref_owner
            assert [([j for j, r in enumerate(cap_row) if r == k], cap)
                    for k, cap in enumerate(caps)] == ref_caps

    def test_batch_matches_scalar_and_verifies(self):
        model = shipped_calibration()
        for mode in ActuationMode:
            problems = []
            for scenario, _ in random_queries(43, 60):
                scenario = GraspScenario(scenario.fruit_radius, scenario.fruit_offset,
                                         scenario.pull_angle, scenario.pull_type, mode)
                problems.append((build_contacts(scenario, model), *pull_wrench_for(scenario)))
            for (contacts, d, app), sol in zip(problems, solve_pull_batch(problems)):
                ref = solve_pull(contacts, d, app)
                assert np.float64(sol.alpha).tobytes() == np.float64(ref.alpha).tobytes()
                assert [f.tobytes() for f in sol.forces] == [f.tobytes() for f in ref.forces]
                assert verify_witness(contacts, sol) == []

    def test_predict_strengths_match_one_at_a_time(self, monkeypatch):
        model = shipped_calibration()
        queries = random_queries(47, 240)
        monkeypatch.setattr(wrench, "LP_BATCH", 7)   # several batches per layout
        got = predict_strengths(queries, model)
        ref = [predict_strength(s, model, cup_indices=cups) for s, cups in queries]
        assert np.array(got).tobytes() == np.array(ref).tobytes()


class TestNonFinite:
    @pytest.mark.parametrize("field", ["fruit_radius", "fruit_offset", "pull_angle"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_scenario_rejects(self, field, value):
        kwargs = {"fruit_radius": 37.5, "fruit_offset": 0.0, "pull_angle": 0.0, field: value}
        with pytest.raises(ValueError):
            GraspScenario(**kwargs)

    def test_witness_reports_nonfinite_alpha(self):
        cs = ContactSet(37.5, (pad([0.0, 0.0, -37.5], 10.0, 0.5),))
        sol = PullSolution(math.nan, (np.zeros(3),), Z, np.zeros(3))
        assert verify_witness(cs, sol)

    def test_witness_reports_nonfinite_force(self):
        cs = ContactSet(37.5, (pad([0.0, 0.0, -37.5], 10.0, 0.5),))
        sol = PullSolution(0.0, (np.array([math.nan, 0.0, 0.0]),), Z, np.zeros(3))
        assert verify_witness(cs, sol)
