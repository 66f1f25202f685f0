import itertools
import sys
import types

import pytest

import tracer
from tracer import Span, check_predicted, layer_metrics, self_times


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span(0, "root", 0, None, 0.0, 10.0),
        Span(1, "a", 0, 0, 1.0, 4.0),
        Span(2, "leaf", 0, 1, 2.0, 3.0),
        Span(3, "b", 0, 0, 5.0, 7.0),
    ]
    assert self_times(spans) == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}


def test_self_time_clips_children_to_parent_and_counts_overlap_once():
    spans = [
        Span(0, "root", 0, None, 0.0, 10.0),
        Span(1, "a", 0, 0, 2.0, 6.0),
        Span(2, "b", 0, 0, 4.0, 12.0),  # overlaps a and runs past the parent
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def _double_eig_request(req, base):
    # double_eig [0, 10]: linearization [0, 1] (with a nested delta_build),
    # core solve [1, 5] with its QZ [2, 4], then 3 eigvals calls of 1 each
    s = [
        Span(base, "double_eig", req, None, 0.0, 10.0),
        Span(base + 1, "delta_build", req, base, 0.0, 1.0),
        Span(base + 2, "delta_build", req, base + 1, 0.2, 0.8),
        Span(base + 3, "solve", req, base, 1.0, 5.0),
        Span(base + 4, "qz", req, base + 3, 2.0, 4.0, attrs={"n3": 8}),
    ]
    s += [Span(base + 5 + j, "eigvals", req, base, 6.0 + j, 7.0 + j) for j in range(3)]
    return s


def test_layer_metrics_polish_core_solve_and_means():
    spans = _double_eig_request(0, 0) + _double_eig_request(1, 10)
    spans.append(Span(99, "build", "setup", None, 0.0, 0.5))
    m = layer_metrics(spans, walls={0: 10.5, 1: 10.5}, lambdas=6, overhead=1.05)
    assert m["two_param.polish.s"] == pytest.approx(5.0)  # 10 - 1 - 4
    assert m["two_param.delta_build.s"] == pytest.approx(1.0)  # nested span not double-counted
    assert m["two_param.core_solve.s"] == pytest.approx(4.0)
    assert m["two_param.mu_solve.calls"] == 0
    assert m["solver.self.s"] == pytest.approx(2.0)
    assert m["solver.qz_per_solve"] == 1.0
    assert m["matrix_core.qz.n3"] == 8
    assert m["two_param.eigvals.calls"] == 3
    assert m["two_param.eigvals_per_lambda"] == pytest.approx(1.0)
    assert m["kcf_gen.build.s"] == pytest.approx(0.5)
    assert m["unattributed.s"] == pytest.approx(0.5)
    assert m["trace.overhead"] == pytest.approx(1.05)


def test_layer_metrics_splits_core_and_mu_solves_of_solve_2ep():
    spans = [Span(0, "solve_2ep", 0, None, 0.0, 10.0)]
    spans += [Span(1 + j, "solve", 0, 0, 1.0 + 2 * j, 2.0 + 2 * j) for j in range(4)]
    m = layer_metrics(spans, walls={0: 10.0}, lambdas=0)
    assert m["two_param.core_solve.s"] == pytest.approx(1.0)
    assert m["two_param.mu_solve.calls"] == 3
    assert m["two_param.self.s"] == pytest.approx(6.0)
    assert m["two_param.eigvals_per_lambda"] == 0.0


@pytest.fixture
def fake_modules():
    """``fakedefs.g`` imported into ``fakeuser`` with ``from fakedefs import g``."""
    defs = types.ModuleType("fakedefs")
    defs.g = lambda x: x + 1
    user = types.ModuleType("fakeuser")
    user.g = defs.g
    user.f = lambda x: user.g(x) * 2
    sys.modules.update(fakedefs=defs, fakeuser=user)
    yield defs, user
    del sys.modules["fakedefs"], sys.modules["fakeuser"]


def test_tracer_records_nested_spans_and_restores(fake_modules):
    defs, user = fake_modules
    originals = (user.f, user.g)
    clock = itertools.count().__next__
    sites = (("fakeuser", "f", "f", None), ("fakeuser", "g", "g", None))
    tr = tracer.Tracer(sites=sites, clock=clock)
    tr.request = 7
    with tr:
        assert user.f(1) == 4
    assert (user.f, user.g) == originals
    f, g = tr.spans
    assert (f.name, f.parent, f.req) == ("f", None, 7)
    assert (g.name, g.parent, g.req) == ("g", f.id, 7)
    assert f.t0 < g.t0 < g.t1 < f.t1


def test_wrapping_the_defining_module_records_nothing_and_fails_loudly(fake_modules):
    defs, user = fake_modules
    tr = tracer.Tracer(sites=(("fakedefs", "g", "qz", tracer._qz_attrs),))
    tr.request = 0
    with tr:
        user.f(1)
    assert tr.spans == []
    m = layer_metrics(tr.spans, walls={0: 1.0}, lambdas=0)
    with pytest.raises(RuntimeError, match="matrix_core.qz.calls"):
        check_predicted(m, ("matrix_core.qz.calls",))


def test_renamed_call_site_fails_at_install(fake_modules):
    tr = tracer.Tracer(sites=(("fakeuser", "renamed", "x", None),))
    with pytest.raises(AttributeError):
        tr.install()


def test_every_call_site_exists_in_the_program():
    tr = tracer.Tracer()
    with tr:
        pass
    assert tr.spans == []
