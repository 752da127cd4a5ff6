import statistics

import pytest

from acdope import bench, opf
from acdope.prng import DeterministicGenerator, derive_seed

from conftest import seed_of


class TestSupport:
    def test_matrix(self):
        for scheme, rho in (("gacd", 127), ("opf-uniform", 127), ("opf-beta", 63)):
            assert bench.bench_scheme(scheme, rho, count=1, repeat=1, seed=seed_of(72)).count == 1
        for scheme, rho in (("opf-beta", 127), ("nonesuch", 7)):
            with pytest.raises(bench.UnsupportedConfig):
                bench.bench_scheme(scheme, rho, count=1, repeat=1, seed=seed_of(72))

    def test_unsupported_raises(self):
        with pytest.raises(bench.UnsupportedConfig):
            bench.bench_scheme("opf-beta", 127, count=8, repeat=1)


class TestBenchScheme:
    def test_result_fields(self):
        r = bench.bench_scheme("gacd", 7, count=64, repeat=2, seed=seed_of(70))
        assert r.scheme == "gacd" and r.rho == 7 and r.count == 64
        assert r.enc_us_mean > 0 and r.dec_us_mean > 0
        assert len(r.enc_batch_means_us) == 2

    def test_opf_init_includes_endpoints(self, monkeypatch):
        calls = []
        init_endpoints = opf.init_endpoints
        monkeypatch.setattr(opf, "init_endpoints",
                            lambda key: calls.append(key) or init_endpoints(key))
        bench._make_ops("opf-uniform", 4, seed_of(74))()
        assert len(calls) == 1

    def test_opf_uniform_runs(self):
        r = bench.bench_scheme("opf-uniform", 4, count=16, repeat=1, seed=seed_of(71))
        assert r.enc_us_mean > 0


    def test_init_timed_over_repeats(self, monkeypatch):
        calls = []
        make_ops = bench._make_ops

        def counted(*args):
            init = make_ops(*args)
            return lambda: calls.append(1) or init()

        monkeypatch.setattr(bench, "_make_ops", counted)
        r = bench.bench_scheme("gacd", 7, count=16, repeat=4, seed=seed_of(75))
        assert len(calls) == len(r.init_batch_ms) == 4
        assert r.init_ms == statistics.median(r.init_batch_ms)

    def test_plaintexts_unchanged(self, monkeypatch):
        # the values the per-value uniform_int loop drew
        seen = []
        make_ops = bench._make_ops

        def recording(*args):
            init = make_ops(*args)

            def wrapped():
                enc, dec = init()
                return (lambda m: seen.append(m) or enc(m)), dec
            return wrapped

        monkeypatch.setattr(bench, "_make_ops", recording)
        bench.bench_scheme("gacd", 31, count=40, repeat=1, seed=seed_of(76))
        pgen = DeterministicGenerator(derive_seed(seed_of(76), b"plain"))
        expected = [pgen.uniform_int(0, (1 << 31) - 1) for _ in range(40)]
        assert seen == expected * 2  # the warm-up batch, then the timed repeat


class TestReporting:
    def test_table_and_metrics(self):
        r = bench.bench_scheme("gacd", 7, count=32, repeat=2, seed=seed_of(72))
        table = bench.format_table([r])
        assert table.splitlines()[0].startswith("scheme")
        assert "gacd" in table
        lines = bench.metric_lines(r)
        assert any(l.startswith("metric=gacd.rho7.enc_us value=") for l in lines)
        assert all(" band=" in l for l in lines)

    def test_bands_and_sort_median_over_repeats(self):
        r = bench.bench_scheme("gacd", 7, count=32, repeat=3, seed=seed_of(73))
        assert len(r.dec_batch_means_us) == len(r.sort_batch_ms) == 3
        assert r.sort_ms == statistics.median(r.sort_batch_ms)
        bands = {
            l.split()[0].rsplit(".", 1)[1]: l.split("band=")[1]
            for l in bench.metric_lines(r)
        }
        for name, samples in (
            ("init_ms", r.init_batch_ms),
            ("enc_us", r.enc_batch_means_us),
            ("dec_us", r.dec_batch_means_us),
            ("sort_ms", r.sort_batch_ms),
        ):
            assert bands[name] == f"{statistics.pstdev(samples):.3f}"
