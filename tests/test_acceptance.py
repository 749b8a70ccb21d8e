"""Acceptance battery.

Nine externally stated criteria, one test (and one printed verdict line)
each. Training-based criteria share module-scoped fixtures so each model is
fitted once. Runtime caps from the criteria are asserted where stated.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from hypercf import autodiff as ad
from hypercf import data as D
from hypercf import evaluation as E
from hypercf import trainer as T
from hypercf import transformer as TR
from hypercf.config import Config
from hypercf.model import Model

SEEDS = (0, 1, 2)


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def accept_config(seed: int, ablate=()) -> Config:
    """Package defaults with the hyperedge count scaled to desk size."""
    return Config(seed=seed, hyperedges=16, ablate=ablate)


def fit_and_score(seed: int, train_ds, splits, ablate=()):
    cfg = accept_config(seed, ablate)
    adj = D.build_normalized_adjacency(train_ds)
    model = Model(cfg, splits.num_users, splits.num_items)
    result = T.fit(model, adj,
                   D.SplitDataset(train_ds, splits.validation, splits.test,
                                  seed))
    T.load_values(model, result.best_values)
    recall = E.evaluate_model(model, adj, train_ds, splits.test,
                              cutoffs=(20,))["recall@20"]
    return recall, model, adj


@pytest.fixture(scope="module")
def blocks():
    """The shared synthetic problem: per-seed splits and noisy variants."""
    out = {}
    for seed in SEEDS:
        ds = D.synthetic_blocks(seed=seed)
        splits = D.split(ds, seed)
        noisy25, _ = D.inject_noise(splits.train, 0.25, seed=seed)
        noisy15, fake15 = D.inject_noise(splits.train, 0.15, seed=seed)
        out[seed] = {"splits": splits, "noisy25": noisy25,
                     "noisy15": noisy15, "fake15": fake15}
    return out


@pytest.fixture(scope="module")
def clean_full(blocks):
    return {s: fit_and_score(s, blocks[s]["splits"].train,
                             blocks[s]["splits"])[0] for s in SEEDS}


@pytest.fixture(scope="module")
def degradations(blocks, clean_full):
    def deg(seed, ablate):
        clean = (clean_full[seed] if not ablate else
                 fit_and_score(seed, blocks[seed]["splits"].train,
                               blocks[seed]["splits"], ablate)[0])
        noisy = fit_and_score(seed, blocks[seed]["noisy25"],
                              blocks[seed]["splits"], ablate)[0]
        return 1.0 - noisy / clean

    return {"full": [deg(s, ()) for s in SEEDS],
            "hyper": [deg(s, ("hyper",)) for s in SEEDS]}


# -- criterion 1: gradient correctness --------------------------------------

def _primitive_cases(rng):
    """One buildable scalar loss per differentiable primitive."""
    def p(shape, lo=0.3, hi=1.7):
        return ad.parameter(rng.uniform(lo, hi, size=shape),
                            dtype=np.float64)

    a, b = p((4, 3)), p((4, 3))
    sq = p((3, 3))
    bias = p((1, 3))
    signed = ad.parameter(rng.uniform(0.2, 1.5, size=(4, 3)) *
                          rng.choice([-1.0, 1.0], size=(4, 3)),
                          dtype=np.float64)
    t3 = p((9, 3))
    vec3 = p((3, 1))
    # query rows differ from key rows; width 4 splits into 1 or 2 heads
    query, key, val = p((3, 4)), p((5, 4)), p((5, 4))
    sp = np.abs(rng.normal(size=(5, 4))).astype(np.float64)
    adj_pair = (sp, sp.T.copy())

    cases = {
        "matmul": ({"a": a, "sq": sq}, lambda: ad.sum_all(ad.matmul(a, sq))),
        # the product with sq makes the gram's upstream gradient asymmetric
        "gram": ({"a": a}, lambda: ad.sum_all(ad.matmul(ad.gram(a), sq))),
        "spmm": ({"a": a}, lambda: ad.sum_all(ad.spmm(adj_pair, a))),
        "transpose": ({"a": a}, lambda: ad.sum_all(ad.transpose(a))),
        "add": ({"a": a, "b": b}, lambda: ad.sum_all(ad.add(a, b))),
        "sub": ({"a": a, "b": b}, lambda: ad.sum_all(ad.sub(a, b))),
        "scale": ({"a": a}, lambda: ad.sum_all(ad.scale(a, -1.7))),
        "add_scalar": ({"a": a}, lambda: ad.sum_all(ad.add_scalar(a, 2.5))),
        "hadamard": ({"a": a, "b": b},
                     lambda: ad.sum_all(ad.hadamard(a, b))),
        "add_bias": ({"a": a, "bias": bias},
                     lambda: ad.sum_all(ad.add_bias(a, bias))),
        "concat_cols": ({"a": a, "b": b},
                        lambda: ad.sum_all(ad.concat_cols(a, b))),
        "gather_rows": ({"a": a},
                        lambda: ad.sum_all(ad.gather_rows(a, [2, 0, 2]))),
        "sum_all": ({"a": a}, lambda: ad.sum_all(a)),
        "sigmoid": ({"a": a}, lambda: ad.sum_all(ad.sigmoid(a))),
        # inputs bounded away from the kink at 0 by construction
        "leaky_relu": ({"signed": signed},
                       lambda: ad.sum_all(ad.leaky_relu(signed, 0.5))),
        "hinge": ({"signed": signed},
                  lambda: ad.sum_all(ad.hinge(signed))),
        "dot_rows": ({"a": a, "b": b},
                     lambda: ad.sum_all(ad.dot_rows(a, b))),
        "tensor_contract": ({"t3": t3, "vec3": vec3},
                            lambda: ad.sum_all(
                                ad.tensor_contract(t3, vec3, 3))),
        "linear_attention_h1": (
            {"query": query, "key": key, "val": val},
            lambda: ad.sum_all(ad.linear_attention(query, key, val, 1))),
        "linear_attention_h2": (
            {"query": query, "key": key, "val": val},
            lambda: ad.sum_all(ad.linear_attention(query, key, val, 2))),
        "sum_squares": ({"a": a, "bias": bias},
                        lambda: ad.sum_squares([a, bias])),
    }
    return cases


def toy_objective():
    """6 users x 5 items, d=8, K=3, H=2, L=2: the stated toy instance."""
    cfg = Config(d=8, hyperedges=3, heads=2, layers=2, batch=32,
                 lambda1=1e-2, lambda2=1e-4, seed=0)
    edges = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 3), (3, 4),
             (3, 2), (4, 3), (4, 0), (5, 1), (5, 4), (2, 2), (1, 4)]
    ds = D.InteractionDataset.from_edges(edges, 6, 5)
    adj = D.build_normalized_adjacency(ds, dtype=np.float64)
    model = Model(cfg, 6, 5)
    rng = np.random.default_rng(100)
    main = D.sample_main_pairs(ds, 6, rng, users=np.arange(6))
    sal = D.sample_sal_pairs(ds, 6, rng)
    return model, adj, main, sal


def test_criterion_1_gradient_correctness(float64_mode):
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(7)
    for name, (params, build) in _primitive_cases(rng).items():
        report = ad.grad_check(build, params, epsilon=1e-5)
        assert report.passed, f"primitive {name}: {report}"
        worst = max(worst, report.max_error)

    model, adj, main, sal = toy_objective()

    def build():
        return model.total_loss(model.forward(adj), main, sal)

    report = ad.grad_check(build, model.params, epsilon=1e-5)
    worst = max(worst, report.max_error)
    elapsed = time.perf_counter() - start
    verdict(1, report.passed and elapsed < 60.0,
            f"max relative error {worst:.2e} (< 1e-4), {elapsed:.1f}s")


# -- criterion 2: factorized attention equals the double-loop oracle --------

def _oracle_n2h(nodes, z, k_map, v_map, heads):
    keys = nodes @ k_map.T
    vals = nodes @ v_map.T
    out = np.zeros_like(z)
    for lo, hi in TR.head_slices(z.shape[1], heads):
        for k in range(z.shape[0]):
            for i in range(nodes.shape[0]):
                score = float(z[k, lo:hi] @ keys[i, lo:hi])
                out[k, lo:hi] += score * vals[i, lo:hi]
    return out, keys


def _oracle_h2n(z_hat, keys, z, v_map, heads):
    vals = z_hat @ v_map.T
    out = np.zeros_like(keys)
    for lo, hi in TR.head_slices(keys.shape[1], heads):
        for i in range(keys.shape[0]):
            for k in range(z.shape[0]):
                score = float(keys[i, lo:hi] @ z[k, lo:hi])
                out[i, lo:hi] += score * vals[k, lo:hi]
    return out


def test_criterion_2_attention_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for d in (4, 8):
        for heads in (1, 2, 4):
            for n in range(1, 9):
                for k in range(1, 9):
                    for seed in range(20):
                        rng = np.random.default_rng(
                            seed + 1000 * (n + 10 * k + 100 * d + heads))
                        nodes = rng.normal(size=(n, d))
                        z = rng.normal(size=(k, d))
                        k_map = rng.normal(size=(d, d))
                        v_map = rng.normal(size=(d, d))
                        p = TR.HyperSideParams(
                            z=ad.constant(z, dtype=np.float64),
                            k_map=ad.constant(k_map, dtype=np.float64),
                            v_map=ad.constant(v_map, dtype=np.float64),
                            h1=None, h2=None, heads=heads)
                        maps = TR.transposed_maps(p)
                        node_t = ad.constant(nodes, dtype=np.float64)
                        got_z = TR.node_to_hyperedge(node_t, p, maps)
                        want_z, want_keys = _oracle_n2h(nodes, z, k_map,
                                                        v_map, heads)
                        worst = max(worst,
                                    np.abs(got_z.value - want_z).max())
                        z_hat = rng.normal(size=(k, d))
                        got_n = ad.matmul(node_t, TR.hyperedge_to_node(
                            ad.constant(z_hat, dtype=np.float64), p, maps))
                        want_n = _oracle_h2n(z_hat, want_keys, z, v_map,
                                             heads)
                        worst = max(worst,
                                    np.abs(got_n.value - want_n).max())
                        cases += 1
    elapsed = time.perf_counter() - start
    verdict(2, worst < 1e-5 and elapsed < 60.0,
            f"{cases} grid cases, max abs diff {worst:.2e} (< 1e-5), "
            f"{elapsed:.1f}s")


# -- criterion 3: factorization speedup -------------------------------------

# The kernels are timed in a child process with one BLAS thread, so another
# process's BLAS threads on the same cores cannot skew the ratio.
BENCH_CHILD = """
import json
from hypercf.transformer import bench_factorization
print(json.dumps(bench_factorization(100_000, 128, 32, 4, repeats=3, seed=0)))
"""


def test_criterion_3_complexity_claim():
    start = time.perf_counter()
    src = os.path.dirname(os.path.dirname(os.path.abspath(TR.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", BENCH_CHILD], env=env,
                           capture_output=True, text=True, timeout=120.0)
    assert child.returncode == 0, child.stderr
    row = json.loads(child.stdout)
    ratio = row["naive_ms"] / row["factorized_ms"]
    elapsed = time.perf_counter() - start
    verdict(3, ratio >= 2.0 and row["max_abs_diff"] < 1.0
            and elapsed < 120.0,
            f"naive {row['naive_ms']:.1f}ms vs factorized "
            f"{row['factorized_ms']:.1f}ms ({ratio:.1f}x, floor 2x), "
            f"{elapsed:.1f}s")


# -- criterion 4: ranking metrics against a brute-force reference -----------

def _brute_rank(scores, train, n):
    ranked = []
    for u in range(scores.shape[0]):
        masked = [(float(-scores[u, j]), j) for j in range(scores.shape[1])
                  if not train.has_edge(u, j)]
        masked.sort()
        ranked.append([j for _, j in masked[:n]])
    return ranked


def _brute_metrics(ranked, test, n):
    recalls, ndcgs = [], []
    for u in range(test.num_users):
        items = set(int(j) for j in test.items_of(u))
        if not items:
            continue
        hits = [pos for pos, j in enumerate(ranked[u][:n], start=1)
                if j in items]
        recalls.append(len(hits) / len(items))
        dcg = sum(1.0 / np.log2(pos + 1) for pos in hits)
        ideal = sum(1.0 / np.log2(pos + 1)
                    for pos in range(1, min(n, len(items)) + 1))
        ndcgs.append(dcg / ideal)
    return float(np.mean(recalls)), float(np.mean(ndcgs))


def test_criterion_4_metric_oracle():
    start = time.perf_counter()
    # the stated hand example: test {A, B}, A ranked first, B missing
    scores = np.zeros((1, 30))
    scores[0, 3] = 5.0
    train = D.InteractionDataset.from_edges([(0, 7)], 1, 30)
    test = D.InteractionDataset.from_edges([(0, 3), (0, 9)], 1, 30)
    scores[0, 9] = -1e30  # push B out of the cutoff
    hand = E.evaluate_scores(scores, train, test, (20,))
    assert hand["recall@20"] == 0.5
    assert abs(hand["ndcg@20"] - 0.6131) < 5e-4

    rng = np.random.default_rng(42)
    exact = 0
    for _ in range(200):
        users = int(rng.integers(2, 51))
        items = int(rng.integers(5, 101))
        n = int(rng.integers(1, items + 1))
        scores = np.round(rng.normal(size=(users, items)) * 4) / 4
        edges = np.unique(rng.integers(0, [users, items],
                                       size=(users * 3, 2)), axis=0)
        half = len(edges) // 2
        train = D.InteractionDataset.from_edges(edges[:half], users, items)
        test_edges = [e for e in edges[half:]
                      if not train.has_edge(e[0], e[1])]
        if not test_edges:
            continue
        test = D.InteractionDataset.from_edges(test_edges, users, items)
        ranked = _brute_rank(scores, train, n)
        result = E.rank_all(scores, train, n)
        for u in range(users):
            assert result.user_list(u).tolist() == ranked[u]
        got = E.evaluate_scores(scores, train, test, (n,))
        want_r, want_n = _brute_metrics(ranked, test, n)
        # rankings match exactly; metric floats may differ by summation
        # reassociation in the reference itself, hence the 1e-12 band
        assert got[f"recall@{n}"] == pytest.approx(want_r, abs=1e-12)
        assert got[f"ndcg@{n}"] == pytest.approx(want_n, abs=1e-12)
        exact += 1
    elapsed = time.perf_counter() - start
    verdict(4, exact >= 150 and elapsed < 30.0,
            f"hand example + {exact} random instances exact, {elapsed:.1f}s")


# -- criteria 5-7: end-to-end behaviour on the synthetic blocks -------------

def test_criterion_5_end_to_end_learning(clean_full):
    start = time.perf_counter()
    mean = float(np.mean(list(clean_full.values())))
    elapsed = time.perf_counter() - start
    verdict(5, mean >= 0.3,
            f"mean test recall@20 {mean:.4f} >= 0.3 "
            f"(3x random baseline); seeds "
            + ", ".join(f"{clean_full[s]:.4f}" for s in SEEDS))


def test_criterion_6_noise_robustness_ordering(degradations):
    full = float(np.mean(degradations["full"]))
    hyper = float(np.mean(degradations["hyper"]))
    verdict(6, full <= hyper,
            f"relative degradation at 25% noise: full {full:+.4f} <= "
            f"graph-only ablation {hyper:+.4f}")


def test_criterion_7_solidity_discrimination(blocks):
    wins = 0
    details = []
    for seed in SEEDS:
        noisy15 = blocks[seed]["noisy15"]
        fake = blocks[seed]["fake15"]
        _, model, adj = fit_and_score(seed, noisy15, blocks[seed]["splits"])
        s = model.solidity_of_edges(adj, noisy15.edges)
        fake_mean = float(np.mean(s[fake]))
        real_mean = float(np.mean(s[~fake]))
        wins += fake_mean < real_mean
        details.append(f"seed {seed}: fake {fake_mean:.4f} vs real "
                       f"{real_mean:.4f}")
    verdict(7, wins >= 2,
            f"fake-edge solidity below real on {wins}/3 seeds ("
            + "; ".join(details) + ")")


# -- criterion 8: determinism and persistence -------------------------------

def test_criterion_8_determinism_and_persistence(tmp_path):
    ds = D.synthetic_blocks(num_users=48, num_items=24, num_blocks=4,
                            edges_per_user=8, seed=0)
    splits = D.split(ds, 0)
    cfg = Config(d=8, hyperedges=4, heads=2, batch=32, lambda1=1e-2,
                 lambda2=1e-4, epochs=4, seed=0)

    def run(out_dir=None, stop_after=None):
        adj = D.build_normalized_adjacency(splits.train)
        model = Model(cfg, splits.num_users, splits.num_items)
        result = T.fit(model, adj, splits, out_dir=out_dir,
                       stop_after=stop_after)
        return model, adj, result

    paths = []
    for tag in ("a", "b"):
        model, adj, _ = run()
        rows = []
        metrics = E.evaluate_model(model, adj, splits.train, splits.test,
                                   cutoffs=(20, 40))
        for c in (20, 40):
            rows.append({"cutoff": c, "recall": metrics[f"recall@{c}"],
                         "ndcg": metrics[f"ndcg@{c}"]})
        path = tmp_path / f"metrics-{tag}.csv"
        E.write_csv(str(path), rows)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    run_dir = tmp_path / "interrupted"
    run(out_dir=str(run_dir), stop_after=2)
    resumed_model, result = T.resume(str(run_dir / "last.ckpt"),
                                     D.build_normalized_adjacency(
                                         splits.train), splits)
    straight_model, _, _ = run()
    same = all(np.array_equal(resumed_model.params[n].value,
                              straight_model.params[n].value)
               for n in straight_model.params)
    verdict(8, identical and same,
            f"repeat-run CSVs byte-identical: {identical}; "
            f"resumed == uninterrupted parameters: {same}")


# -- criterion 9: paper-scale numbers are informative only ------------------

def test_criterion_9_paper_numbers_not_gating():
    dump = os.environ.get("HYPERCF_DATASET", "")
    if not dump or not os.path.exists(dump):
        line = ("[criterion 9] PASS: paper-table numbers require the "
                "original dataset dumps and full tuning and are not "
                "acceptance-gating; set HYPERCF_DATASET to a desk-scale "
                "interaction TSV to record the informative smoke comparison")
        print(line)
        pytest.skip("no dataset dump supplied; criterion is informative "
                    "only (set HYPERCF_DATASET to record the smoke run)")
    ds = D.load_interactions(dump)
    splits = D.split(ds, 0)
    full, _, _ = fit_and_score(0, splits.train, splits)
    hyper, _, _ = fit_and_score(0, splits.train, splits, ablate=("hyper",))
    beat = full > hyper
    # informative, never blocking
    print(f"[criterion 9] INFO: smoke run on {dump}: full {full:.4f} vs "
          f"graph-only {hyper:.4f} -> {'beats' if beat else 'does not beat'}")
