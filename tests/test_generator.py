import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from kronmoments.cli import main as cli_main
from kronmoments.features import count_features
from kronmoments import generator
from kronmoments.generator import (
    MAX_GENERATE_POWER,
    _hit_ranks,
    _regions,
    _sorted_keys,
    _unrank,
    cell_uniforms,
    generate,
    generate_edges,
    generate_to_file,
)
from kronmoments import graph_io
from kronmoments.graph_io import load_edge_list
from kronmoments.moments import KroneckerParams, expected_features
from oracles import checked_graph, probability_matrix

PARAMS = KroneckerParams(0.99, 0.48, 0.25, 8)


class TestCellProbability:
    # cell probabilities as the explicit matrix oracle holds them
    def test_corners(self):
        p = probability_matrix(KroneckerParams(0.99, 0.48, 0.25, 5))
        assert p[0, 0] == pytest.approx(0.99 ** 5, rel=1e-12)
        assert p[0, 31] == pytest.approx(0.48 ** 5, rel=1e-12)
        assert p[31, 31] == pytest.approx(0.25 ** 5, rel=1e-12)

    def test_bit_decomposition(self):
        p = probability_matrix(KroneckerParams(0.99, 0.48, 0.25, 3))
        # 5 = 101, 3 = 011: factor per bit position (1,1), (0,1), (1,0)
        assert p[5, 3] == pytest.approx(0.48 * 0.48 * 0.25, rel=1e-12)

    def test_exact_zero_factor(self):
        p = probability_matrix(KroneckerParams(0.9, 0.0, 0.4, 4))
        assert p[0, 1] == 0.0

    def test_symmetry(self):
        p = probability_matrix(KroneckerParams(0.9, 0.5, 0.3, 4))
        rng = np.random.default_rng(0)
        for _ in range(20):
            i, j = rng.integers(0, 16, 2)
            assert p[i, j] == pytest.approx(p[j, i], rel=1e-14)


class TestGenerate:
    def test_complete_graph(self):
        g = generate(KroneckerParams(1, 1, 1, 3), seed=9)
        assert g.num_vertices == 8
        assert g.num_edges == 28

    def test_complete_graph_features(self):
        n = 64
        fc = count_features(generate(KroneckerParams(1, 1, 1, 6), seed=0))
        assert fc.edges == n * (n - 1) // 2
        assert fc.hairpins == n * (n - 1) * (n - 2) // 2
        assert fc.tripins == n * (n - 1) * (n - 2) * (n - 3) // 6
        assert fc.triangles == n * (n - 1) * (n - 2) // 6

    @pytest.mark.parametrize("r", [31, 32])
    def test_edges_ascending_on_both_sides_of_the_one_key_sort(self, r):
        # up to r = 31 one (u << r) | v key is sorted; past it, a lexsort
        edges = generate_edges(KroneckerParams(0.5, 0.3, 0.2, r), seed=3)
        rows = [tuple(e) for e in edges.tolist()]
        assert len(rows) > 100
        assert rows == sorted(set(rows))
        assert all(0 <= u < v < 1 << r for u, v in rows)

    # the complete graph only up to r = 8, 32,640 edges
    @pytest.mark.parametrize("abc, top", [((0.99, 0.48, 0.25), 12),
                                          ((0.9, 0.6, 0.2), 12),
                                          ((1.0, 1.0, 1.0), 8),
                                          ((0.5, 0.0, 0.5), 12),
                                          ((0.0, 0.7, 0.0), 12)])
    def test_graph_takes_the_sampled_keys(self, monkeypatch, abc, top):
        # generate builds the graph straight from the sampler's sorted keys
        # (u << r) | v: the same graph as keying, sorting and checking the
        # edges anew, without a call to the edge keying
        want = {(r, seed): checked_graph(1 << r,
                                         generate_edges(
                                             KroneckerParams(*abc, r), seed))
                for r in range(top + 1) for seed in (1, 2, 3)}

        def no_keying(*args):
            raise AssertionError("generate keyed its edges again")

        monkeypatch.setattr(graph_io, "_edge_keys", no_keying)
        for (r, seed), w in want.items():
            g = generate(KroneckerParams(*abc, r), seed)
            assert g.num_vertices == w.num_vertices == 1 << r
            for name in ("keys", "degrees", "edge_array"):
                assert np.array_equal(getattr(g, name), getattr(w, name))
                assert getattr(g, name).dtype == getattr(w, name).dtype
            assert g.labels is None
            assert (g.loops_dropped, g.duplicates_dropped) == (0, 0)

    def test_zero_offdiagonal_empty(self):
        g = generate(KroneckerParams(0.9, 0.0, 0.4, 5), seed=9)
        assert g.num_edges == 0
        assert g.num_vertices == 32

    def test_zero_diagonal_dual_pairing(self):
        # a = c = 0: edges can only join a node to its bitwise complement
        r = 6
        g = generate(KroneckerParams(0, 0.9, 0, r), seed=4)
        assert g.num_edges > 0
        mask = (1 << r) - 1
        for u, v in g.edge_array:
            assert int(u) ^ int(v) == mask

    def test_no_loops_and_sorted(self):
        g = generate(PARAMS, seed=2)
        assert np.all(g.edge_array[:, 0] < g.edge_array[:, 1])

    def test_same_seed_repeats(self):
        ref = generate_edges(PARAMS, seed=11)
        for _ in range(3):
            assert np.array_equal(ref, generate_edges(PARAMS, seed=11))

    def test_seed_changes_output(self):
        e1 = generate_edges(PARAMS, seed=1)
        e2 = generate_edges(PARAMS, seed=2)
        assert e1.shape != e2.shape or not np.array_equal(e1, e2)

    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), (2 ** 64, ValueError), (2 ** 64 + 11, ValueError),
        (11.0, TypeError), (True, TypeError)])
    def test_seed_outside_64_bits_is_an_error(self, seed, error):
        # a seed taken mod 2^64 would sample another seed's graph
        for sample in (generate_edges, generate):
            with pytest.raises(error, match="seed must be"):
                sample(PARAMS, seed=seed)

    def test_largest_seed_has_its_own_stream(self):
        top = generate_edges(PARAMS, seed=2 ** 64 - 1)
        for seed in (0, 1, 2 ** 63 - 1):
            other = generate_edges(PARAMS, seed=seed)
            assert top.shape != other.shape or not np.array_equal(top, other)

    def test_power_bound(self):
        assert MAX_GENERATE_POWER == 34
        with pytest.raises(ValueError, match="r <= 34"):
            generate_edges(
                KroneckerParams(0.5, 0.3, 0.2, MAX_GENERATE_POWER + 1), seed=0)
        # about (1.3^24 - 0.7^24) / 2 = 271 expected edges
        g = generate(KroneckerParams(0.5, 0.3, 0.2, 24), seed=0)
        assert g.num_vertices == 1 << 24
        assert 271 - 6 * 271 ** 0.5 <= g.num_edges <= 271 + 6 * 271 ** 0.5
        assert np.all(g.edge_array[:, 0] < g.edge_array[:, 1])
        assert g.edge_array.max() < 1 << 24

    @pytest.mark.parametrize("r", [32, MAX_GENERATE_POWER])
    def test_generate_past_the_vertex_limit_raises_before_sampling(
            self, monkeypatch, r):
        # 2^32 vertices pass graph_io._MAX_VERTICES; the file writer
        # still reaches r = 34 through generate_edges
        def no_sampling(*args):
            raise AssertionError("generate sampled a graph it cannot hold")

        monkeypatch.setattr("kronmoments.generator._sampled_cells",
                            no_sampling)
        with pytest.raises(ValueError, match="at most 3037000499 vertices"):
            generate(KroneckerParams(0.5, 0.3, 0.2, r), seed=0)


class TestGrassHopping:
    @pytest.mark.parametrize("r", range(7))
    def test_regions_cover_upper_triangle_once(self, r):
        # unrank every index of every region: each cell u < v appears
        # exactly once, with the probability its region carries
        params = KroneckerParams(0.9, 0.5, 0.3, r)
        i, j, multinomial, sizes, probs = _regions(params)
        g = np.repeat(np.arange(sizes.size), sizes)
        rank = np.arange(g.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        u, v = _unrank(r, i[g], j[g], multinomial[g], rank)
        n = 1 << r
        assert np.all((0 <= u) & (u < v) & (v < n))
        cells = u * n + v
        assert np.unique(cells).size == cells.size == n * (n - 1) // 2
        cell = probability_matrix(params)
        for x, y, p in zip(u.tolist(), v.tolist(), probs[g].tolist()):
            assert p == pytest.approx(cell[x, y], rel=1e-12, abs=0)

    def test_certain_and_impossible_regions(self):
        # a = c = 1, b = 0: the p = 1 regions are exactly those with j = 0
        # (the diagonal, outside the triangle), so nothing is drawn
        assert generate_edges(KroneckerParams(1, 0, 1, 5), seed=3).size == 0
        # b = 1, a = c = 0: only the region with j = r has p = 1 and every
        # other region p = 0; all of its cells are hits
        r = 5
        edges = generate_edges(KroneckerParams(0, 1, 0, r), seed=3)
        n = 1 << r
        assert len(edges) == n // 2
        assert np.all(edges[:, 0] ^ edges[:, 1] == n - 1)
        # mixed: p = 1 and p = 0 regions in one draw
        params = KroneckerParams(1, 1, 0, 4)
        i, j, _, sizes, probs = _regions(params)
        assert set(probs.tolist()) == {0.0, 1.0}
        got = generate_edges(params, seed=1)
        assert len(got) == sizes[i + j == 4].sum()
        cell = probability_matrix(params)
        assert all(cell[x, y] == 1.0 for x, y in got)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_top_up_matches_one_batch(self, seed):
        # drawing one deviate per region per round tops every region up
        # many times; the hits must equal those from one batch that covers
        # every region
        *_, sizes, probs = _regions(KroneckerParams(0.99, 0.48, 0.25, 5))
        small, large = (
            [np.concatenate(part) for part in zip(*_hit_ranks(
                seed, sizes, probs, batch))]
            for batch in (np.ones_like(sizes), sizes.copy()))
        key = [np.lexsort((rank, g)) for g, rank in (small, large)]
        assert small[0].size > 10
        for got, want in zip(small, large):
            assert np.array_equal(got[key[0]], want[key[1]])

    # the samples of each case, all at most about this many chunks long
    MAX_CHUNKS = 500

    @pytest.mark.parametrize("chunk", [1, 7, generator._SAMPLE_CHUNK])
    @pytest.mark.parametrize("abc", [(1, 0.3, 0), (0, 1, 0), (1, 1, 0),
                                     (0.99, 0.48, 0.25)])
    def test_chunks_give_the_one_batch_keys(self, monkeypatch, chunk, abc):
        # the t-th deviate of region g depends on (seed, g, t) alone, so
        # chunking the deviates cannot change the keys; the initiators put
        # p = 1 and p = 0 regions into one draw
        a, b, c = abc
        cases = [KroneckerParams(a, b, c, r) for r in range(13)
                 if ((a + 2 * b + c) ** r - (a + c) ** r) / 2
                 <= self.MAX_CHUNKS * chunk]
        assert len(cases) > 6
        monkeypatch.setattr(generator, "_SAMPLE_CHUNK", 1 << 62)
        want = [_sorted_keys(p, seed) for p in cases for seed in (1, 2, 3)]
        monkeypatch.setattr(generator, "_SAMPLE_CHUNK", chunk)
        got = [_sorted_keys(p, seed) for p in cases for seed in (1, 2, 3)]
        assert sum(w.size for w in want) > 100
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("shape", [(), (2,)])
    def test_key_buffer_grows_past_the_expected_edges(self, shape):
        # the buffer holds the expected rows, four standard deviations and 8
        # more; past them it grows, and it ends at the rows it holds
        sizes = (5, 9, 0, 30, 100, 1)
        chunks = [np.arange(n * math.prod(shape), dtype=np.int64)
                  .reshape((n,) + shape) for n in sizes]
        got = generator._gathered(1.0, iter(chunks), shape)
        assert got.shape == (sum(sizes),) + shape
        assert np.array_equal(got, np.concatenate(chunks))

    def test_keys_trace_8_bytes_an_edge(self):
        # the sampler holds the key buffer and one chunk's temporaries;
        # unranking every hit at once traced 118 bytes an edge at r = 16
        params = KroneckerParams(0.99, 0.48, 0.25, 16)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            keys = _sorted_keys(params, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert keys.size > 100_000
        # a chunk's temporaries are about 32 int64 arrays of a chunk each
        allowance = 48 * 8 * generator._SAMPLE_CHUNK
        assert peak <= 8 * keys.size + allowance, peak / keys.size


class TestFileOutput:
    def test_header_and_round_trip(self, tmp_path):
        out = tmp_path / "kron.txt"
        generate_to_file(PARAMS, seed=21, path=out)
        lines = out.read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        assert any("seed=21" in ln for ln in header)
        assert any("r=8" in ln for ln in header)
        body = [ln for ln in lines if not ln.startswith("#")]
        pairs = [tuple(map(int, ln.split("\t"))) for ln in body]
        assert pairs == sorted(pairs)
        assert all(u < v for u, v in pairs)
        # reloading reproduces the in-memory edge set
        g_mem = generate(PARAMS, seed=21)
        g_file = load_edge_list(out)
        assert g_file.num_edges == g_mem.num_edges
        relabeled = {
            (min(a, b), max(a, b))
            for a, b in (
                (g_file.labels[u], g_file.labels[v])
                for u, v in g_file.edge_array
            )
        }
        assert relabeled == {(int(u), int(v)) for u, v in g_mem.edge_array}

    def test_bytes_identical_for_same_seed(self, tmp_path):
        blobs = []
        for run in range(3):
            out = tmp_path / f"run{run}.txt"
            generate_to_file(PARAMS, seed=5, path=out)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    # SHA-256 of `generate --out` files.  A change that alters the sampled
    # bytes on purpose updates these and says so.
    @pytest.mark.parametrize("a, b, c, r, seed, digest", [
        (0.99, 0.48, 0.25, 12, 1,
         "a23ee9be93d0485ea27cb63bdf06e2f94c48d1d784fb30d72c03fee2f5133b15"),
        (0.5, 0.3, 0.2, 20, 7,
         "c64b21edcc4bbccbc52fababafae4834a3c6282ed2f195af87fd9fca6b648da2"),
        (0.9, 0.5, 0.2, 14, 0,
         "c31eb008edbff5d066394703e51178b5f210fa8ec82e496b95254756c6bd76de"),
        # past r = 31 the file comes from the lexsort of the unranked rows,
        # and r = 34 unranks the widest flips words
        (0.5, 0.3, 0.2, 33, 1,
         "ecb1223c0eb62c3a1f121fabc4b347f9da5ede8ec438f8638cbf928e8cc09cae"),
        (0.5, 0.3, 0.2, 34, 1,
         "5b4fa6c94074f99bf797dc120f84d2d59204f4a359cfd140754edf3015784573"),
    ])
    def test_golden_bytes(self, tmp_path, capsys, a, b, c, r, seed, digest):
        out = tmp_path / "g.txt"
        code = cli_main(["generate", "--a", str(a), "--b", str(b),
                         "--c", str(c), "--r", str(r), "--seed", str(seed),
                         "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("rows", [1, 7, generator._WRITE_ROWS])
    def test_write_blocks_give_the_same_bytes(self, tmp_path, capsys,
                                              monkeypatch, rows):
        # each block of lines is decoded from the sorted keys on its own
        want = tmp_path / "want.txt"
        generate_to_file(PARAMS, seed=4, path=want)
        monkeypatch.setattr(generator, "_WRITE_ROWS", rows)
        out = tmp_path / "g.txt"
        code = cli_main(["generate", "--a", "0.99", "--b", "0.48",
                         "--c", "0.25", "--r", "8", "--seed", "4",
                         "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert out.read_bytes() == want.read_bytes()
        assert len(want.read_bytes().splitlines()) > 3 + 7

    @pytest.mark.parametrize("r", [31, 32])
    def test_file_holds_the_edge_rows_on_both_key_paths(self, tmp_path, r):
        # up to r = 31 the lines are decoded from the packed keys; past it
        # they are generate_edges' rows
        params = KroneckerParams(0.5, 0.3, 0.2, r)
        out = generate_to_file(params, seed=3, path=tmp_path / "g.txt")
        body = [ln for ln in out.read_text().splitlines()
                if not ln.startswith("#")]
        rows = [list(map(int, ln.split("\t"))) for ln in body]
        assert len(rows) > 1000
        assert rows == generate_edges(params, seed=3).tolist()

    def test_missing_directory_fails_before_sampling(self, tmp_path,
                                                     monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before the file was created")

        monkeypatch.setattr(generator, "_sampled_cells", no_sampling)
        with pytest.raises(OSError):
            generate_to_file(PARAMS, seed=1, path=tmp_path / "no" / "g.txt")

    def test_failed_sample_leaves_no_file(self, tmp_path, monkeypatch):
        def failing_sample(*args):
            assert out.exists()  # created before any sampling
            raise ValueError("no sample")

        out = tmp_path / "g.txt"
        monkeypatch.setattr(generator, "_sampled_cells", failing_sample)
        with pytest.raises(ValueError, match="no sample"):
            generate_to_file(PARAMS, seed=1, path=out)
        assert not out.exists()


class TestDistribution:
    def test_uniforms_are_uniform(self):
        u = cell_uniforms(123, np.arange(200_000, dtype=np.uint64))
        assert 0.0 <= u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 5 * (12 ** -0.5) / math.sqrt(u.size)
        hist = np.bincount((u * 16).astype(int), minlength=16)
        assert hist.min() > 0.9 * u.size / 16

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_cell_inclusion_frequency(self, r):
        # empirical per-cell inclusion over 5000 runs tracks the cell
        # probability within 4 binomial standard errors, for every cell
        params = KroneckerParams(0.99, 0.48, 0.25, r)
        n = 2 ** r
        runs = 5000
        counts = np.zeros((n, n))
        for s in range(runs):
            for u, v in generate(params, seed=s).edge_array:
                counts[u, v] += 1
        cell = probability_matrix(params)
        for i in range(n):
            for j in range(i + 1, n):
                p = cell[i, j]
                band = 4 * math.sqrt(p * (1 - p) / runs)
                assert abs(counts[i, j] / runs - p) <= band, (i, j)

    def test_feature_means_track_expectations(self):
        params = KroneckerParams(0.99, 0.48, 0.25, 8)
        exp = expected_features(params)
        sums = {f: [] for f in ("edges", "hairpins", "tripins", "triangles")}
        runs = 150
        for s in range(runs):
            fc = count_features(generate(params, seed=s))
            for f in sums:
                sums[f].append(fc.get(f))
        for f, vals in sums.items():
            vals = np.array(vals, dtype=float)
            if f == "edges":
                se = math.sqrt(exp.get(f) / runs)
            else:
                se = vals.std(ddof=1) / math.sqrt(runs)
            assert abs(vals.mean() - exp.get(f)) <= 5 * se, f
