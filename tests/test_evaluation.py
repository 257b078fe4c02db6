import tempfile
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    f_beta_oracle,
    loop_local_linear_map,
    loop_nearest_neighbors,
    loop_run_alignment_test,
    nmi_oracle,
    tied_matrix,
)
from tvembed import evaluation
from tvembed.baselines import local_linear_maps
from tvembed.evaluation import (
    AlignmentTestset,
    CosineRows,
    f_beta,
    load_labeled_triplets,
    load_testset,
    mp_at_k,
    mrr,
    nearest_neighbors,
    nmi,
    norm_series,
    run_alignment_test,
    spherical_kmeans,
)
from tvembed.artifact import ArtifactError
from tvembed.corpus import Vocabulary
from tvembed.solver import read_embeddings_binary, write_embeddings_binary


def with_warnings(run, *args, **kwargs):
    """run(*args, **kwargs) and the texts of the UserWarnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(*args, **kwargs)
    return result, [str(w.message) for w in caught
                    if w.category is UserWarning]


@st.composite
def neighbor_cases(draw):
    """A query (a row of the matrix or a fresh vector), no dropped word or
    one, and K from 1 to past the candidate count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = draw(st.integers(1, 40))
    d = draw(st.integers(1, 60))
    m = tied_matrix(rng, V, d, draw(st.booleans()), draw(st.integers(0, V)),
                    draw(st.integers(0, 3)))
    q = m[draw(st.integers(0, V - 1))] if draw(st.booleans()) else (
        rng.integers(-2, 3, size=d).astype(np.float64))
    drop = draw(st.none() | st.integers(0, V - 1))
    return q, m, draw(st.integers(1, V + 2)), drop


class TestNearestNeighbors:
    def toy(self):
        return np.array([[1.0, 0.0], [0.0, 1.0], [1 / 2**0.5, 1 / 2**0.5]])

    def test_toy_ranking(self):
        out = nearest_neighbors(np.array([1.0, 0.0]), self.toy(), K=2,
                                drop=0)
        assert [w for w, _ in out] == [2, 1]
        assert out[0][1] == pytest.approx(2**-0.5)
        assert out[1][1] == pytest.approx(0.0, abs=1e-15)

    def test_exclusion(self):
        out = nearest_neighbors(self.toy()[0], self.toy(), K=1, drop=0)
        assert out[0][0] == 2

    def test_tie_break_by_index(self):
        mat = np.array([[2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        out = nearest_neighbors(np.array([1.0, 0.0]), mat, K=3)
        assert [w for w, _ in out] == [0, 1, 2]

    def test_zero_rows_skipped(self):
        mat = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = nearest_neighbors(np.array([1.0, 0.0]), mat, K=5)
        assert [w for w, _ in out] == [1]

    def test_scale_invariance(self):
        q = np.array([0.3, 0.7])
        a = nearest_neighbors(q, self.toy(), K=3)
        b = nearest_neighbors(5.0 * q, self.toy(), K=3)
        assert [w for w, _ in a] == [w for w, _ in b]
        for (_, sa), (_, sb) in zip(a, b):
            assert sa == pytest.approx(sb, abs=1e-12)

    @given(neighbor_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle(self, case):
        q, m, K, drop = case
        exclude = () if drop is None else {drop}
        try:
            want = loop_nearest_neighbors(q, m, K, exclude=exclude)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                nearest_neighbors(q, m, K, drop=drop)
        else:
            assert nearest_neighbors(q, m, K, drop=drop) == want


class TestCosineRows:
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 24),
                                                 max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_any_drop_order_matches_a_fresh_product(self, seed, drops):
        # Whatever word the call before left out, every score equals the
        # product over the candidate rows with this call's row deleted.
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((25, 7))
        m[rng.integers(25, size=3)] = 0.0
        rows = CosineRows(m)
        idx = np.flatnonzero(np.linalg.norm(m, axis=1) > 0)
        norms = np.linalg.norm(m, axis=1)[idx]
        q = rng.standard_normal(7)
        for w in drops:
            sims, words = rows.scores(q, drop=w)
            keep = idx != w
            want = (m[idx[keep]] @ q) / (norms[keep] * np.linalg.norm(q))
            assert np.array_equal(words, idx[keep])
            assert np.array_equal(sims, want)


    @pytest.mark.parametrize("branch", ["every-row", "zero-row", "excluded"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stored_norms_rank_as_computed_norms(self, branch, seed):
        # A slice read from a .tvem ranks the same, bit for bit, with the
        # row norms the file stores as with norms computed from the slice:
        # over the slice itself when every row is a candidate, over the
        # gathered candidate rows when a zero row or an excluded word is
        # left out. Slices before it move where it starts in the file.
        rng = np.random.default_rng(seed)
        V, d = int(rng.integers(2, 60)), int(rng.integers(1, 51))
        mats = [rng.standard_normal((V, d))
                for _ in range(int(rng.integers(1, 5)))]
        if branch == "zero-row":
            mats[-1][rng.integers(V)] = 0.0
        exclude = {int(rng.integers(V))} if branch == "excluded" else set()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "e.tvem"
            write_embeddings_binary(mats, list(range(len(mats))), path)
            read, _, norms = read_embeddings_binary(path, with_norms=True)
            m, stored, computed = read[-1], norms[-1], None
            if exclude:
                # An excluded word is masked out by a norm of 0.
                keep = np.ones(V, dtype=bool)
                keep[list(exclude)] = False
                stored = np.where(keep, stored, 0.0)
                computed = np.where(keep, np.linalg.norm(m, axis=1), 0.0)
            rows = CosineRows(m, norms=stored)
            fresh = CosineRows(m, norms=computed)
            assert np.array_equal(rows.position, fresh.position)
            for q in (m[int(rng.integers(V))], rng.standard_normal(d)):
                if not q.any():
                    continue
                for drop in (None, *rng.integers(V, size=3).tolist()):
                    for a, b in zip(rows.scores(q, drop),
                                    fresh.scores(q, drop)):
                        assert a.tobytes() == b.tobytes()
                    k = int(rng.integers(1, V + 2))
                    for a, b in zip(rows.top(q, k, drop),
                                    fresh.top(q, k, drop)):
                        assert a.tobytes() == b.tobytes()
                    block = [(q, np.linalg.norm(q), drop)]
                    assert np.array_equal(rows.tops(block, k),
                                          fresh.tops(block, k))
                k = int(rng.integers(1, V + 2))
                want = loop_nearest_neighbors(q, m, k, exclude=exclude)
                drop = next(iter(exclude), None)
                assert nearest_neighbors(q, m, k, drop, norms=stored) == want
                assert nearest_neighbors(q, m, k, drop) == want


class TestSphericalKMeans:
    def test_singleton_clusters(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 3))
        out = spherical_kmeans(X, K=6, seed=1)
        assert sorted(out.tolist()) == list(range(6))

    def test_antipodal_bundles_separate(self):
        rng = np.random.default_rng(2)
        center = np.array([1.0, 0.0, 0.0])
        a = center + 0.01 * rng.standard_normal((10, 3))
        b = -center + 0.01 * rng.standard_normal((10, 3))
        out = spherical_kmeans(np.vstack([a, b]), K=2, seed=2)
        first, second = out[:10], out[10:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 4))
        a = spherical_kmeans(X, K=4, seed=9)
        b = spherical_kmeans(X, K=4, seed=9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_duplicated_rows_leave_no_cluster_empty(self, seed):
        # Four copies each of three directions: the Lloyd step leaves all
        # but three clusters empty, and the repair fills every one.
        X = np.repeat(np.eye(3), 4, axis=0)
        for K in range(1, len(X) + 1):
            sizes = np.bincount(spherical_kmeans(X, K, seed=seed), minlength=K)
            assert sizes.min() > 0, (K, sizes.tolist())

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            spherical_kmeans(np.ones((3, 2)), K=4)

    def test_zero_vector_rejected(self):
        X = np.ones((4, 2))
        X[1] = 0.0
        with pytest.raises(ValueError):
            spherical_kmeans(X, K=2)


class TestNmi:
    def test_perfect(self):
        labels = ["A", "A", "B", "B"]
        assert nmi(labels, np.array([0, 0, 1, 1])) == pytest.approx(1.0)

    def test_independent(self):
        labels = ["A", "B", "A", "B"]
        assert nmi(labels, np.array([0, 0, 1, 1])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_example_matches_oracle(self):
        labels = ["A", "A", "B", "B"]
        assign = [0, 0, 0, 1]
        assert nmi(labels, np.array(assign)) == pytest.approx(
            nmi_oracle(labels, assign), abs=1e-12
        )

    def test_degenerate_returns_one(self):
        with pytest.warns(UserWarning):
            assert nmi(["A", "A"], np.array([0, 0])) == 1.0

    @pytest.mark.parametrize("seed", range(20))
    def test_random_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        labels = [chr(65 + int(i)) for i in rng.integers(3, size=n)]
        assign = rng.integers(3, size=n).tolist()
        assert nmi(labels, np.array(assign)) == pytest.approx(
            nmi_oracle(labels, assign), abs=1e-12
        )

    def test_relabeling_invariance(self):
        labels = ["A", "B", "A", "C", "B"]
        a = nmi(labels, np.array([0, 1, 0, 2, 1]))
        b = nmi(labels, np.array([2, 0, 2, 1, 0]))
        assert a == pytest.approx(b, abs=1e-12)


class TestFBeta:
    def test_perfect(self):
        assert f_beta(["A", "A", "B"], np.array([0, 0, 1])) == 1.0

    def test_no_true_positives(self):
        assert f_beta(["A", "A", "B", "B"], np.array([0, 1, 0, 1])) == 0.0

    def test_undefined_precision_warns(self):
        # Every item its own cluster and label: no positive pairs at all.
        with pytest.warns(UserWarning):
            assert f_beta(["A", "B"], np.array([0, 1])) == 0.0

    def test_example_matches_oracle(self):
        labels = ["A", "A", "B", "B"]
        assign = [0, 0, 0, 1]
        assert f_beta(labels, np.array(assign), beta=5.0) == pytest.approx(
            f_beta_oracle(labels, assign, 5.0), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_random_matches_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        labels = [chr(65 + int(i)) for i in rng.integers(3, size=n)]
        assign = rng.integers(3, size=n).tolist()
        assert f_beta(labels, np.array(assign)) == pytest.approx(
            f_beta_oracle(labels, assign, 5.0), abs=1e-12
        )

    @given(
        st.lists(
            st.tuples(st.sampled_from("ABCD"), st.integers(0, 3)),
            min_size=2,
            max_size=40,
        ),
        st.sampled_from([0.5, 1.0, 5.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_pair_oracle_exactly(self, items, beta):
        labels = [lab for lab, _ in items]
        assign = [clu for _, clu in items]
        got, caught = with_warnings(f_beta, labels, np.array(assign),
                                    beta=beta)
        assert got == f_beta_oracle(labels, assign, beta)
        # It warns exactly when no pair shares a cluster or none a label.
        pairs = list(combinations(items, 2))
        same_c = any(a[1] == b[1] for a, b in pairs)
        same_l = any(a[0] == b[0] for a, b in pairs)
        assert bool(caught) == (not same_c or not same_l)

    def test_fewer_than_two_items_rejected(self):
        for n in (0, 1):
            clusters = np.zeros(n, dtype=np.int64)
            with pytest.raises(ValueError, match="at least 2"):
                f_beta(["A"] * n, clusters)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        labels = ["A", "B", "A", "C", "B", "C"]
        assign = [0, 1, 0, 2, 2, 1]
        perm = rng.permutation(6)
        a = f_beta(labels, np.array(assign))
        b = f_beta(
            [labels[i] for i in perm], np.array([assign[i] for i in perm])
        )
        assert a == pytest.approx(b, abs=1e-12)


class TestRankMetrics:
    def test_mrr_all_first(self):
        assert mrr([1, 1, 1]) == 1.0

    def test_mrr_with_not_found(self):
        assert mrr([1, None]) == 0.5

    def test_mrr_example(self):
        assert mrr([1, 2, 4, None]) == pytest.approx(0.4375)

    def test_mrr_cutoff(self):
        assert mrr([11]) == 0.0

    def test_mp_example(self):
        assert mp_at_k([1, 2, 11], 10) == pytest.approx(2 / 3)

    def test_mp_at_1(self):
        ranks = [1, 2, 1, None]
        assert mp_at_k(ranks, 1) == pytest.approx(
            sum(1 for r in ranks if r == 1) / 4
        )

    @given(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=1, max_value=30)),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=200)
    def test_monotone_in_k_and_mrr_bound(self, ranks):
        values = [mp_at_k(ranks, K) for K in (1, 3, 5, 10)]
        assert values == sorted(values)
        assert 0.0 <= mrr(ranks) <= 1.0
        assert mrr(ranks) <= mp_at_k(ranks, 10)


@st.composite
def alignment_cases(draw):
    """Slices with exact ties (duplicated and integer-valued rows), zero
    rows, and records that query their own slice, answer with the query
    word, or rank beyond K_max."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = draw(st.integers(1, 40))
    d = draw(st.integers(1, 60))
    T = draw(st.integers(1, 3))
    integer_valued = draw(st.booleans())
    mats = [tied_matrix(rng, V, d, integer_valued, draw(st.integers(0, V)),
                        draw(st.integers(0, 3))) for _ in range(T)]
    labels = sorted(rng.choice(3000, size=T, replace=False).tolist())
    words = st.integers(0, V - 1)
    records = draw(st.lists(
        st.tuples(words, st.sampled_from(labels), st.sampled_from(labels),
                  words),
        max_size=30,
    ))
    records += [(w, lab, lab, w) for w, lab, _, _ in records[:3]]
    K_max = draw(st.integers(1, V + 2))
    return AlignmentTestset(records=records), mats, labels, K_max


class TestRunAlignmentTest:
    def embeddings(self):
        rng = np.random.default_rng(8)
        m0 = rng.standard_normal((5, 3))
        m1 = m0.copy()  # perfectly aligned
        return {2000: m0, 2001: m1}

    def test_identical_vector_ranks_first(self):
        slices = self.embeddings()
        ts = AlignmentTestset(records=[(2, 2000, 2001, 2)])
        assert with_warnings(run_alignment_test, ts, slices) == ([1], [])

    def test_self_query_excluded(self):
        slices = self.embeddings()
        ts = AlignmentTestset(records=[(2, 2000, 2000, 2)])
        ranks = run_alignment_test(ts, slices)
        assert ranks[0] != 1 or ranks[0] is None

    def test_zero_query_skipped(self):
        slices = self.embeddings()
        slices[2000][1] = 0.0
        ts = AlignmentTestset(records=[(1, 2000, 2001, 1)])
        assert with_warnings(run_alignment_test, ts, slices) == (
            [], ["skipped 1 records: 1 with a zero query vector"])

    def test_skip_warning_names_each_cause(self):
        # A zero own vector is a zero query even when a map is given; a
        # nonzero word without a map is unmapped.
        slices = self.embeddings()
        slices[2000][1] = 0.0
        ts = AlignmentTestset(records=[(1, 2000, 2001, 1), (2, 2000, 2001, 2),
                                       (3, 2000, 2001, 3)])
        queries = [None, None, slices[2001][3]]
        with pytest.warns(UserWarning, match=(
                r"^skipped 2 records: 1 with a zero query vector, 1 with no "
                r"local map \(fewer than k neighbours nonzero in both "
                r"slices\)$")):
            ranks = run_alignment_test(ts, slices, queries=queries)
        assert ranks == [1]

    def test_not_found_beyond_cutoff(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((30, 3))
        q = -m[0]  # antipodal: worst similarity to answer 0
        mats = [np.vstack([q, m[1:]]), m]
        ts = AlignmentTestset(records=[(0, 0, 1, 0)])
        assert run_alignment_test(ts, dict(enumerate(mats))) == [None]

    @pytest.mark.parametrize("n", [evaluation._BLOCK - 1, evaluation._BLOCK,
                                   evaluation._BLOCK + 1,
                                   2 * evaluation._BLOCK + 1])
    def test_block_boundaries_match_loop_oracle(self, n):
        # n records per target slice, ranked a block at a time: same-slice
        # and cross-slice queries, answers on zero rows, answers that are
        # the dropped query word, and duplicated rows that tie exactly.
        rng = np.random.default_rng(n)
        V, labels = 300, [10, 20, 30]
        mats = []
        for _ in labels:
            m = rng.standard_normal((V, 6))
            m[10:20] = m[40:50]
            m[rng.integers(V, size=5)] = 0.0
            mats.append(m)
        records = []
        for t, target in enumerate(labels):
            zero = np.flatnonzero(~mats[t].any(axis=1))
            for j in range(n):
                word = int(rng.integers(V))
                answer = (word, int(zero[j % len(zero)]),
                          int(rng.integers(V)))[j % 3]
                source = target if j % 2 else labels[(t + 1) % 3]
                records.append((word, source, target, answer))
        ts = AlignmentTestset(records=records)
        assert with_warnings(run_alignment_test, ts, dict(zip(labels, mats)),
                             K_max=V) == with_warnings(
            loop_run_alignment_test, ts, mats, labels, K_max=V)
        assert any(a == b and w == answer for w, a, b, answer in records)

    def test_block_path_taken_unless_answer_near_tie(self, monkeypatch):
        # Only a record with two cosines within the near-tie margin among
        # its first K_max + 1 candidates is searched again by
        # CosineRows.top.
        rng = np.random.default_rng(21)
        source, target = rng.standard_normal((2, 500, 10))
        target[20:40:2] = 0.0  # answers there; and no RuntimeWarning
        records = [(int(w), s, t, int(a)) for w, a, (s, t) in zip(
            rng.integers(40, 500, size=150), rng.integers(20, 500, size=150),
            [(0, 1), (1, 1), (0, 0)] * 50)]
        # Answers among each query's first ten, so ranks are not all None.
        records += [(w, s, t, int(nearest_neighbors(
            (source, target)[s][w], (source, target)[t], 10,
            w if s == t else None)[j][0])) for j, (w, s, t, _) in zip(
                range(10), records)]
        slices = {0: source, 1: target}
        again = []
        top = CosineRows.top
        monkeypatch.setattr(CosineRows, "top", lambda self, q, k, drop:
                            again.append(drop) or top(self, q, k, drop))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ranks = run_alignment_test(AlignmentTestset(records), slices)
            assert again == []
            assert ranks[-10:] == list(range(1, 11))
            # Rows 7 and 8 of the target, both along source row 3, are
            # the first two of query (3, 0) and tie exactly; queries into
            # the target with a negative cosine with them lack them among
            # their first eleven.
            target[[7, 8]] = source[3]
            far = [r for r in records if r[2] == 0
                   or slices[r[1]][r[0]] @ source[3] < 0]
            far += [(3, 0, 1, 7), (3, 0, 1, 8)]
            ranks = run_alignment_test(AlignmentTestset(far), slices)
        assert again == [None, None]
        assert ranks[-2:] == [1, 2]
        assert ranks == loop_run_alignment_test(
            AlignmentTestset(far), [source, target], [0, 1])

    @pytest.mark.parametrize("K_max", [1, 3, 10])
    @pytest.mark.parametrize("later", [False, True])
    def test_answer_tied_at_the_cutoff(self, monkeypatch, K_max, later):
        # The answer's row duplicates another candidate's exactly, the two
        # at positions K_max and K_max + 1: the block product cannot order
        # them, so `top` does, by word index, and the answer with the
        # larger index falls past the cutoff.
        again = []
        top = CosineRows.top
        monkeypatch.setattr(CosineRows, "top", lambda self, q, k, drop:
                            again.append(k) or top(self, q, k, drop))
        rng = np.random.default_rng(K_max)
        source, target = rng.standard_normal((2, 300, 8))
        q = source[0]
        order = [w for w, _ in loop_nearest_neighbors(q, target, 300)]
        at, low = order[K_max - 1], min(order[K_max - 1], order[-1])
        target[order[-1]] = target[at]
        pair = [w for w, _ in
                loop_nearest_neighbors(q, target, K_max + 1)[K_max - 1:]]
        assert pair == [low, max(at, order[-1])]
        record = (0, 0, 1, pair[1] if later else pair[0])
        ts = AlignmentTestset([record])
        ranks = run_alignment_test(ts, {0: source, 1: target}, K_max)
        assert again == [K_max]
        assert ranks == loop_run_alignment_test(ts, [source, target], [0, 1],
                                                K_max)
        assert ranks == [None if later else K_max]

    @given(alignment_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle(self, case):
        ts, mats, labels, K_max = case
        assert with_warnings(run_alignment_test, ts, dict(zip(labels, mats)),
                             K_max=K_max) == with_warnings(
            loop_run_alignment_test, ts, mats, labels, K_max=K_max)


    @given(alignment_cases(), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_mapped_queries_match_loop_oracle(self, case, k):
        # tw2v: each query is first mapped by its local linear transform;
        # a record without a map is skipped.
        ts, mats, labels, K_max = case
        by_label = dict(zip(labels, mats))
        want, skipped = [], 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for w, a, b, answer in ts.records:
                try:
                    q = loop_local_linear_map(w, by_label[a], by_label[b], k)
                except ValueError:
                    skipped += 1
                    continue
                if np.linalg.norm(q) == 0:
                    skipped += 1
                    continue
                top = loop_nearest_neighbors(q, by_label[b], K_max,
                                             exclude={w} if a == b else set())
                want.append(next((pos for pos, (word, _) in
                                  enumerate(top, start=1) if word == answer),
                                 None))
            queries = local_linear_maps(
                [(w, a, b) for w, a, b, _ in ts.records], by_label, k=k)
        got, caught = with_warnings(run_alignment_test, ts, by_label,
                                    K_max=K_max, queries=queries)
        assert got == want
        assert [m.split(":")[0] for m in caught] == (
            [f"skipped {skipped} records"] if skipped else [])


class TestNormSeries:
    def test_zero_vector(self):
        mats = [np.zeros((3, 2)), np.ones((3, 2))]
        out = norm_series(1, dict(zip([1990, 1991], mats)))
        assert out[0] == (1990, 0.0)
        assert out[1] == (1991, pytest.approx(2**0.5))

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(10)
        mats = [rng.standard_normal((4, 3))]
        base = norm_series(2, {0: mats[0]})[0][1]
        doubled = norm_series(2, {0: 2 * mats[0]})[0][1]
        assert doubled == pytest.approx(2 * base)

    def test_length(self):
        mats = [np.ones((2, 2))] * 4
        assert len(norm_series(0, dict(zip([1, 2, 3, 4], mats)))) == 4


class TestLoaders:
    def test_testset_loader_drops_oov(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "query_word,query_label,target_label,answer_word\n"
            "cat,2000,2001,dog\n"
            "cat,2000,2001,unicorn\n"
        )
        vocab = Vocabulary(["cat", "dog"])
        with pytest.warns(UserWarning, match="dropped 1 out-of-vocabulary"):
            ts = load_testset(p, vocab)
        assert ts.records == [(0, 2000, 2001, 1)]

    def test_triplet_loader_filters(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text(
            "word,label,section,strength\n"
            "cat,2000,Pets,0.9\n"
            "cat,2005,Pets,0.95\n"  # same (word, section): keep the stronger
            "dog,2000,Pets,0.2\n"  # below threshold
            "owl,2001,Wild,0.5\n"
        )
        vocab = Vocabulary(["cat", "dog", "owl"])
        items = load_labeled_triplets(p, vocab)
        assert len(items) == 2
        cat = next(i for i in items if i.word == vocab.index["cat"])
        assert cat.slice_label == 2005

    @pytest.mark.parametrize("rows", [
        ["a,1,S,nan"], ["a,1,S,nan", "a,2,S,0.9"], ["a,2,S,0.9", "a,1,S,nan"]],
        ids=["alone", "first", "last"])
    def test_nan_strength_rejected(self, tmp_path, rows):
        # A NaN strength is not a number: it would pass the threshold, and
        # which row of a (word, section) it hides would depend on row order.
        p = tmp_path / "l.csv"
        p.write_text("\n".join(["word,label,section,strength", *rows]) + "\n")
        line = 2 + rows.index("a,1,S,nan")
        with pytest.raises(ArtifactError,
                           match=rf"l\.csv:{line}: strength 'nan' is not a"):
            load_labeled_triplets(p, Vocabulary(["a"]))

    def test_triplet_infinite_strength_kept(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("word,label,section,strength\n"
                     "a,1,S,0.9\na,2,S,inf\nb,3,S,-inf\n")
        items = load_labeled_triplets(p, Vocabulary(["a", "b"]))
        assert [(i.word, i.slice_label) for i in items] == [(0, 2)]

    def test_triplet_top_per_section(self, tmp_path, monkeypatch):
        p = tmp_path / "l.csv"
        rows = ["word,label,section,strength"]
        words = [f"w{i}" for i in range(5)]
        for i, w in enumerate(words):
            rows.append(f"{w},2000,S,{0.5 + i * 0.05}")
        p.write_text("\n".join(rows) + "\n")
        vocab = Vocabulary(sorted(words))
        monkeypatch.setattr(evaluation, "TRIPLET_TOP_PER_SECTION", 2)
        items = load_labeled_triplets(p, vocab)
        assert len(items) == 2
        kept = {i.word for i in items}
        assert kept == {vocab.index["w4"], vocab.index["w3"]}

    def test_csv_line_endings_and_quoted_newlines(self, tmp_path):
        # A quoted field keeps its "\r\n", and line numbers count the
        # physical lines it spans.
        p = tmp_path / "l.csv"
        p.write_bytes(b'word,label,section,strength\r\n'
                      b'cat,2000,"Pets\r\nand more",0.9\r\n')
        vocab = Vocabulary(["cat", "dog"])
        items = load_labeled_triplets(p, vocab)
        assert [(i.word, i.slice_label, i.section) for i in items] == [
            (0, 2000, "Pets\r\nand more")]
        p.write_bytes(p.read_bytes() + b"dog,x,Pets,0.9\r\n")
        with pytest.raises(ArtifactError, match=r"l\.csv:4: label 'x' is not"):
            load_labeled_triplets(p, vocab)
