import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_ops as ad
from bayescl import autodiff
from bayescl import encoder as E
from bayescl import head as H
from bayescl.autodiff import _lgamma_digamma


def build_graph(builder, inputs):
    out = ad.forward_eval(builder, inputs)
    return out.graph, out


def _episode_loss(t):
    return H.episode_loss((t["rho_alpha"], t["rho_beta"]), t["support"], t["query"], 2)


MIXED_GRAPH_VALUES = {
    "x": np.ones((2, 3)), "y": np.ones((2, 3)), "w": np.ones((3, 4)), "b": np.zeros(4),
    "support": np.arange(12.0).reshape(4, 3), "query": np.ones((4, 3)),
    "rho_alpha": 0.0, "rho_beta": 0.0,
}
# case -> (build from the bound tensors, the one bound on another graph,
# the operand the error names)
MIXED_GRAPH_CASES = {
    "dense weight": (lambda t: E.dense(t["x"], t["w"], t["b"], True), "w", "w"),
    "dense bias": (lambda t: E.dense(t["x"], t["w"], t["b"], True), "b", "b"),
    # the node joins the support's graph, so the query is the stranger
    "episode_loss support": (_episode_loss, "support", "query"),
    "episode_loss query": (_episode_loss, "query", "query"),
    "episode_loss rho": (_episode_loss, "rho_alpha", "rho_alpha"),
    "add": (lambda t: ad.add(t["x"], t["y"]), "y", "y"),
    "concat": (lambda t: ad.concat([t["x"], t["y"]]), "y", "y"),
    "stack": (lambda t: ad.stack([t["x"], t["y"]]), "y", "y"),
}


class TestForward:
    def test_square(self):
        out = ad.forward_eval(lambda g, t: ad.mul(t["x"], t["x"]), {"x": 3.0})
        assert out.data == 9.0

    def test_softplus_at_zero(self):
        out = ad.forward_eval(lambda g, t: ad.softplus(t["x"]), {"x": 0.0})
        assert out.data == pytest.approx(np.log(2.0), abs=1e-12)

    def test_identity_matvec(self):
        def f(g, t):
            return ad.matmul(g.constant(np.eye(2)), t["v"])

        out = ad.forward_eval(f, {"v": np.array([2.5, -1.5])})
        np.testing.assert_array_equal(out.data, [2.5, -1.5])

    def test_shape_mismatch_names_op(self):
        def f(g, t):
            return ad.matmul(t["a"], t["b"])

        with pytest.raises(ad.GraphError, match="matmul"):
            ad.forward_eval(f, {"a": np.ones((2, 3)), "b": np.ones((2, 3))})

    def test_non_finite_intermediate_reports_node(self):
        with pytest.raises(ad.GraphError, match="node"):
            ad.forward_eval(lambda g, t: ad.exp(t["x"]), {"x": 1000.0})

    def test_mixed_graphs_rejected(self):
        g1, g2 = ad.DiffGraph(), ad.DiffGraph()
        a = g1.input("a", 1.0)
        b = g2.input("b", 2.0)
        with pytest.raises(ad.GraphError, match="different graphs"):
            ad.add(a, b)

    @pytest.mark.parametrize("case", MIXED_GRAPH_CASES)
    def test_every_joining_op_rejects_mixed_graphs(self, case):
        # one operand bound on another graph; _register names the one that
        # is not on the node's graph (the first operand's) and adds no node
        build, stray, named = MIXED_GRAPH_CASES[case]
        g, other = ad.DiffGraph(), ad.DiffGraph()
        values = MIXED_GRAPH_VALUES
        t = {name: (other if name == stray else g).input(name, v) for name, v in values.items()}
        with pytest.raises(
            ad.GraphError, match=rf"different graphs \('{named}' lives on a different graph\)$"
        ):
            build(t)
        assert (len(g), len(other)) == (len(values) - 1, 1)

    def test_one_dimensional_logits_rejected(self):
        g = ad.DiffGraph()
        with pytest.raises(ad.GraphError, match="expects 2-D logits"):
            ad.softmax_cross_entropy(g.input("x", np.zeros(3)), np.array([1]))

    def test_binding_a_name_twice_rejected(self):
        g = ad.DiffGraph()
        w = g.input("w", np.ones(3))
        with pytest.raises(ad.GraphError, match="input 'w' already bound on this graph"):
            g.input("w", np.ones(3))  # even with the same value
        assert len(g) == 1
        assert g.backward(ad.sum_reduce(w))["w"].tolist() == [1.0, 1.0, 1.0]


class TestOwnDict:
    """A graph made without ``buffers`` lends from a dict of its own, the
    way the graphs that share one dict do."""

    @pytest.mark.parametrize("tape", [True, False])
    def test_a_given_back_array_is_lent_again(self, tape):
        g = ad.DiffGraph(tape)
        a, b = g.borrow((3, 4)), g.borrow((3, 4))
        g.give_back(a)
        assert g.borrow((3, 4)) is a
        assert g.borrow((3, 4)) is not b
        assert ad.DiffGraph()._free is not ad.DiffGraph()._free

    @pytest.mark.parametrize("tape", [True, False])
    def test_release_returns_every_loan_to_the_dict(self, tape):
        g = ad.DiffGraph(tape)
        loans = [g.borrow((2, 5)) for _ in range(3)] + [g.borrow((2, 7))]
        g.give_back(loans[1])
        g.release()
        assert g._lent == {}
        assert {s: sorted(map(id, f)) for s, f in g._free.items()} == {
            (2, 5): sorted(map(id, loans[:3])), (2, 7): [id(loans[3])]}
        assert sorted(id(g.borrow((2, 5))) for _ in range(3)) == sorted(map(id, loans[:3]))


class TestBackward:
    def test_square_derivative(self):
        g, out = build_graph(lambda g, t: ad.mul(t["x"], t["x"]), {"x": 3.0})
        assert g.backward(out)["x"] == 6.0

    def test_sum_gradient_is_ones(self):
        g, out = build_graph(lambda g, t: ad.sum_reduce(t["x"]), {"x": np.arange(4.0)})
        np.testing.assert_array_equal(g.backward(out)["x"], np.ones(4))

    def test_log_derivative(self):
        g, out = build_graph(lambda g, t: ad.log(t["x"]), {"x": 2.0})
        assert g.backward(out)["x"] == pytest.approx(0.5, abs=1e-15)

    def test_seed_shape_checked(self):
        g, out = build_graph(lambda g, t: ad.mul(t["x"], 2.0), {"x": np.ones(3)})
        with pytest.raises(ad.GraphError, match="seed shape"):
            g.backward(out, seed=np.ones(2))

    def test_repeated_backward_does_not_accumulate(self):
        g, out = build_graph(lambda g, t: ad.mul(t["x"], t["x"]), {"x": 3.0})
        first = g.backward(out)["x"].copy()
        second = g.backward(out)["x"]
        np.testing.assert_array_equal(first, second)

    def test_seed_contraction(self):
        g, out = build_graph(lambda g, t: ad.mul(t["x"], 2.0), {"x": np.ones(3)})
        grads = g.backward(out, seed=np.array([1.0, 10.0, 100.0]))
        np.testing.assert_array_equal(grads["x"], [2.0, 20.0, 200.0])

    def test_unused_input_gets_zeros(self):
        def f(g, t):
            return ad.mul(t["x"], 1.0)

        out = ad.forward_eval(f, {"x": 2.0, "unused": np.ones(3)})
        grads = out.graph.backward(out)
        np.testing.assert_array_equal(grads["unused"], np.zeros(3))

    def test_broadcast_bias_gradient_shape(self):
        def f(g, t):
            return ad.sum_reduce(ad.add(t["m"], t["b"]))

        out = ad.forward_eval(f, {"m": np.ones((4, 3)), "b": np.zeros(3)})
        grads = out.graph.backward(out)
        np.testing.assert_array_equal(grads["b"], 4.0 * np.ones(3))

    def test_max_reduce_ties_route_to_first(self):
        g, out = build_graph(
            lambda g, t: ad.max_reduce(t["x"]), {"x": np.array([2.0, 5.0, 5.0])}
        )
        np.testing.assert_array_equal(g.backward(out)["x"], [0.0, 1.0, 0.0])


@settings(max_examples=50)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    x=st.floats(0.2, 2.5),
    y=st.floats(0.2, 2.5),
)
def test_backward_linearity(a, b, x, y):
    """grad(a*f + b*g) == a*grad(f) + b*grad(g) over the primitive set."""

    def f(graph, t):
        return ad.mul(ad.log(t["x"]), ad.softplus(t["y"]))

    def g_(graph, t):
        return ad.add(ad.exp(ad.mul(t["x"], 0.3)), ad.sqrt(t["y"]))

    def combined(graph, t):
        return ad.add(ad.mul(f(graph, t), a), ad.mul(g_(graph, t), b))

    point = {"x": x, "y": y}
    out_f = ad.forward_eval(f, point)
    out_g = ad.forward_eval(g_, point)
    out_c = ad.forward_eval(combined, point)
    gf = out_f.graph.backward(out_f)
    gg = out_g.graph.backward(out_g)
    gc = out_c.graph.backward(out_c)
    for name in point:
        np.testing.assert_allclose(
            gc[name], a * gf[name] + b * gg[name], rtol=1e-10, atol=1e-12
        )


def test_determinism_bit_identical():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 3))

    def f(g, t):
        h = ad.softplus(ad.matmul(t["x"], g.constant(rng_w)))
        return ad.sum_reduce(ad.log(ad.add(h, 1.0)))

    rng_w = rng.normal(size=(3, 4))
    outs, grads = [], []
    for _ in range(2):
        out = ad.forward_eval(f, {"x": x})
        outs.append(out.data.tobytes())
        grads.append(out.graph.backward(out)["x"].tobytes())
    assert outs[0] == outs[1]
    assert grads[0] == grads[1]


class TestGradCheck:
    def test_square(self):
        err = ad.grad_check(lambda g, t: ad.mul(t["x"], t["x"]), {"x": 3.0}, step=1e-5)
        assert err < 1e-6

    def test_constant_function_zero_error(self):
        err = ad.grad_check(lambda g, t: ad.mul(t["x"], 0.0), {"x": 1.5}, step=1e-5)
        assert err == 0.0

    def test_non_scalar_output_rejected(self):
        with pytest.raises(ad.GraphError, match="scalar"):
            ad.grad_check(lambda g, t: ad.mul(t["x"], 2.0), {"x": np.ones(3)}, step=1e-5)

    def test_bad_step_rejected(self):
        with pytest.raises(ad.GraphError, match="step"):
            ad.grad_check(lambda g, t: t["x"], {"x": 1.0}, step=0.0)


# scalar-izing wrappers so every primitive can be checked with grad_check;
# the probe weights make the seed generic
def _probe(g, t_out, key="__probe"):
    rng = np.random.default_rng(0)
    w = g.constant(rng.uniform(0.5, 1.5, size=t_out.shape))
    return ad.sum_reduce(ad.mul(t_out, w))


def _dense_point(r):
    return {"x": r.normal(size=(4, 3)), "w": r.normal(size=(3, 5)), "b": r.normal(size=5)}


PRIMITIVE_CASES = {
    "add": (lambda g, t: _probe(g, ad.add(t["a"], t["b"])), lambda r: {"a": r.normal(size=(3, 2)), "b": r.normal(size=(3, 2))}),
    "sub": (lambda g, t: _probe(g, ad.sub(t["a"], t["b"])), lambda r: {"a": r.normal(size=4), "b": r.normal(size=4)}),
    "mul": (lambda g, t: _probe(g, ad.mul(t["a"], t["b"])), lambda r: {"a": r.normal(size=(2, 3)), "b": r.normal(size=(2, 3))}),
    "matmul": (lambda g, t: _probe(g, ad.matmul(t["a"], t["b"])), lambda r: {"a": r.normal(size=(3, 4)), "b": r.normal(size=(4, 2))}),
    "matvec": (lambda g, t: _probe(g, ad.matmul(t["a"], t["b"])), lambda r: {"a": r.normal(size=(3, 4)), "b": r.normal(size=4)}),
    "exp": (lambda g, t: _probe(g, ad.exp(t["x"])), lambda r: {"x": r.normal(size=5)}),
    "log": (lambda g, t: _probe(g, ad.log(t["x"])), lambda r: {"x": r.uniform(0.3, 3.0, size=5)}),
    "softplus": (lambda g, t: _probe(g, ad.softplus(t["x"])), lambda r: {"x": r.normal(size=5) * 2}),
    "reciprocal": (lambda g, t: _probe(g, ad.reciprocal(t["x"])), lambda r: {"x": r.uniform(0.5, 2.0, size=5)}),
    "sqrt": (lambda g, t: _probe(g, ad.sqrt(t["x"])), lambda r: {"x": r.uniform(0.2, 4.0, size=5)}),
    "sum": (lambda g, t: _probe(g, ad.sum_reduce(t["x"], axis=0)), lambda r: {"x": r.normal(size=(3, 4))}),
    "mean": (lambda g, t: _probe(g, ad.mean_reduce(t["x"], axis=1)), lambda r: {"x": r.normal(size=(3, 4))}),
    "max": (lambda g, t: _probe(g, ad.max_reduce(t["x"], axis=0)), lambda r: {"x": r.normal(size=(4, 3))}),
    "softmax": (lambda g, t: _probe(g, ad.softmax(t["x"], axis=-1)), lambda r: {"x": r.normal(size=(2, 4))}),
    "softmax_cross_entropy": (
        lambda g, t: ad.softmax_cross_entropy(t["x"], np.array([1, 0, 2])),
        lambda r: {"x": r.normal(size=(3, 4))},
    ),
    "lgamma": (lambda g, t: _probe(g, ad.lgamma(t["x"])), lambda r: {"x": r.uniform(0.6, 8.0, size=5)}),
    "stack": (lambda g, t: _probe(g, ad.stack([t["a"], t["b"]], axis=1)), lambda r: {"a": r.normal(size=3), "b": r.normal(size=3)}),
    "concat": (lambda g, t: _probe(g, ad.concat([t["a"], t["b"]])), lambda r: {"a": r.normal(size=3), "b": r.normal(size=2)}),
    "transpose": (lambda g, t: _probe(g, ad.transpose(t["x"])), lambda r: {"x": r.normal(size=(2, 3))}),
    "reshape": (lambda g, t: _probe(g, ad.reshape(t["x"], (6,))), lambda r: {"x": r.normal(size=(2, 3))}),
    # the fused nodes a program runs
    "dense": (lambda g, t: _probe(g, E.dense(t["x"], t["w"], t["b"], True)), _dense_point),
    "dense_linear": (lambda g, t: _probe(g, E.dense(t["x"], t["w"], t["b"], False)), _dense_point),
    "student_t_logits": (
        lambda g, t: _probe(
            g, H._student_t_logits((t["rho_alpha"], t["rho_beta"]), t["support"], t["query"], 3)
        ),
        lambda r: {
            "support": r.normal(size=(6, 4)), "query": r.normal(size=(5, 4)),
            "rho_alpha": r.normal(scale=0.3), "rho_beta": r.normal(scale=0.3),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients(name):
    builder, sampler = PRIMITIVE_CASES[name]
    for seed in range(5):
        point = sampler(np.random.default_rng(seed))
        assert ad.grad_check(builder, point, step=1e-5) <= 1e-5, name


class TestLogGamma:
    def test_against_high_precision_series(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        xs = np.concatenate([np.linspace(0.5, 50.0, 497), [100.0, 1e3, 1e6]])
        mine = ad.lgamma_value(xs)
        for x, v in zip(xs, mine):
            truth = float(mpmath.loggamma(mpmath.mpf(float(x))))
            if x <= 50.0:
                assert abs(v - truth) < 1e-10, x
            assert abs(v - truth) <= 1e-12 * max(1.0, abs(truth)), x

    def test_small_argument_recurrence(self):
        mpmath = pytest.importorskip("mpmath")
        for x in (0.01, 0.1, 0.3, 0.49):
            assert abs(float(ad.lgamma_value(x)) - float(mpmath.loggamma(x))) < 1e-10

    def test_digamma_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        xs = [0.2, 0.6, 1.0, 2.5, 10.0, 100.0]
        for x in xs:
            assert abs(float(ad.digamma_value(x)) - float(mpmath.digamma(x))) < 1e-12

    @pytest.mark.parametrize("shape", [(), (10,), (200,), (1000,)])
    @pytest.mark.parametrize("lo, hi", [(0.01, 0.5), (0.5, 5.0), (5.0, 1e4)])
    def test_value_path_is_the_series_bits(self, lo, hi, shape):
        # lgamma_value skips the digamma series; (0.01, 0.5) takes the recurrence
        x = np.random.default_rng(int(hi)).uniform(lo, hi, size=shape)
        assert ad.lgamma_value(x).tobytes() == _lgamma_digamma(x)[0].tobytes()

    def test_domain_errors(self):
        with pytest.raises(ad.GraphError):
            ad.lgamma_value(-1.0)
        with pytest.raises(ad.GraphError):
            ad.lgamma_value(0.0)


def test_sqrt_subgradient_zero_at_zero():
    # zero-variance pooling must yield finite (zero) gradients, not NaN
    def f(g, t):
        m = ad.mean_reduce(t["x"], axis=0)
        dev = ad.sub(t["x"], m)
        return ad.sum_reduce(ad.sqrt(ad.mean_reduce(ad.mul(dev, dev), axis=0)))

    x = np.ones((4, 3))  # identical rows: variance exactly 0
    out = ad.forward_eval(f, {"x": x})
    assert out.data == 0.0
    grads = out.graph.backward(out)
    np.testing.assert_array_equal(grads["x"], np.zeros((4, 3)))


def copying_backward(graph, out):
    """Reference backward: copies each parent's first adjoint and adds the
    later ones in place."""
    adjoints = [None] * len(graph)
    adjoints[out.index] = np.ones_like(out.data)
    for node in reversed(graph._nodes[: out.index + 1]):
        g = adjoints[node.index]
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None:
                continue
            if adjoints[parent.index] is None:
                adjoints[parent.index] = pg.copy()
            else:
                adjoints[parent.index] += pg
    return {
        name: np.zeros_like(t.data) if adjoints[t.index] is None else adjoints[t.index]
        for name, t in graph._inputs.items()
    }


def three_exp_softplus(x):
    """Reference softplus whose vjp computes exp(-|x|) three times."""

    def vjp(g):
        s = np.where(
            x.data >= 0,
            1.0 / (1.0 + np.exp(-np.abs(x.data))),
            np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))),
        )
        return (g * s,)

    return x.graph._register(ad.softplus_value(x.data), (x,), vjp, "softplus")


def mlp_loss(softplus):
    def build(g, t):
        h = softplus(ad.add(ad.matmul(t["x"], t["w1"]), t["b1"]))
        z = softplus(ad.add(ad.matmul(h, t["w2"]), t["b2"]))
        return ad.sum_reduce(ad.mul(z, g.constant(np.linspace(-2.0, 2.0, 5))))

    return build


def fan_out_loss(g, t):
    # p and q each feed a mul, then an add created after it: backward
    # reaches the add first, and it hands one adjoint array to both
    p = ad.mul(t["a"], 2.0)
    q = ad.add(t["b"], 1.0)
    d = ad.mul(p, q)
    c = ad.add(p, q)
    r = ad.transpose(ad.transpose(c))
    loss = ad.sum_reduce(ad.mul(r, g.constant(np.arange(12.0).reshape(3, 4))))
    return ad.add(ad.add(loss, ad.sum_reduce(d)), ad.sum_reduce(t["a"]))


class TestAdjointsNotChangedInPlace:
    def point(self):
        rng = np.random.default_rng(17)
        return {
            "x": rng.normal(scale=20.0, size=(9, 6)),  # softplus on both sides of 0
            "w1": rng.normal(size=(6, 7)), "b1": rng.normal(size=7),
            "w2": rng.normal(size=(7, 5)), "b2": rng.normal(size=5),
            "a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4)),
        }

    def test_mlp_gradients_match_the_copying_reference(self):
        pt = self.point()
        mlp = {k: pt[k] for k in ("x", "w1", "b1", "w2", "b2")}
        out = ad.forward_eval(mlp_loss(ad.softplus), mlp)
        ref = ad.forward_eval(mlp_loss(three_exp_softplus), mlp)
        assert out.data.tobytes() == ref.data.tobytes()
        grads, ref_grads = out.graph.backward(out), copying_backward(ref.graph, ref)
        for name in mlp:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name

    def test_fan_out_gradients_match_the_copying_reference(self):
        pt = self.point()
        ab = {"a": pt["a"], "b": pt["b"]}
        out = ad.forward_eval(fan_out_loss, ab)
        grads, ref_grads = out.graph.backward(out), copying_backward(out.graph, out)
        for name in ab:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name
        # d loss/da = 2*(w + q) + 1 and d loss/db = w + p, with w = arange(12)
        w = np.arange(12.0).reshape(3, 4)
        np.testing.assert_allclose(grads["a"], 2 * (w + pt["b"] + 1.0) + 1.0)
        np.testing.assert_allclose(grads["b"], w + 2 * pt["a"])


def test_every_shipped_op_has_a_program_caller():
    # an op only the tests use belongs in tape_ops, not in the package
    used = set()
    for path in Path(autodiff.__file__).parent.glob("*.py"):
        if path.name == "autodiff.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "autodiff" and node.level == 1
            for alias in node.names
        }
        used |= {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        } & imported
    ops = set(autodiff.__all__) - {"GraphError", "Tensor", "DiffGraph"}
    assert ops - used == set()
