import collections
import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acdope
from acdope import bench, cli, errors, gacd, opf
from acdope.prng import DeterministicGenerator, seed_from_material

from test_opf import GOLDEN_KEY_SEED, MALFORMED_KEY_FILES, OPF_GOLDEN

SEED = "ab" * 32
SEED2 = "cd" * 32


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def gacd_key(tmp_path):
    path = str(tmp_path / "gacd.key")
    assert run("keygen", "--scheme", "gacd", "--rho", "7", "--seed", SEED, "--out", path) == 0
    return path


@pytest.fixture
def beta_key(tmp_path):
    path = str(tmp_path / "beta.key")
    assert run("keygen", "--scheme", "opf-beta", "--rho", "7", "--N", str(2**20),
               "--seed", SEED, "--out", path) == 0
    return path


class TestKeygen:
    def test_gacd_defaults_to_minimal_lambda(self, gacd_key):
        text = open(gacd_key).read()
        assert "lambda=19" in text
        assert "M=128" in text

    def test_gacd_lambda_below_bound(self, tmp_path, capsys):
        rc = run("keygen", "--scheme", "gacd", "--rho", "7", "--lambda", "18",
                 "--out", str(tmp_path / "x.key"))
        assert rc == cli.EXIT_PARAMS
        assert "lambda" in capsys.readouterr().err

    def test_missing_domain(self, tmp_path):
        assert run("keygen", "--scheme", "gacd", "--out", str(tmp_path / "x.key")) == 2

    @pytest.mark.parametrize("args, rc, shown", [
        ("--n-hint 500", cli.EXIT_OK, "warning: n_hint=500 above M/100"),
        ("--lambda 3 --n-hint 500", cli.EXIT_PARAMS, "warning: n_hint=500 above M/100"),
        ("--lambda 3", cli.EXIT_PARAMS, "error: lambda=3 below bound"),
    ])
    def test_gacd_params_checked_once(self, tmp_path, monkeypatch, capsys, args, rc, shown):
        # one validation report gives both keygen's warnings and its refusal
        reports = []
        real = gacd.validate_params
        monkeypatch.setattr(gacd, "validate_params", lambda p: reports.append(p) or real(p))
        assert run("keygen", "--scheme", "gacd", "--rho", "15", *args.split(), "--seed", SEED,
                   "--out", str(tmp_path / "x.key")) == rc
        assert shown in capsys.readouterr().err
        assert len(reports) == 1

    def test_seed_reproducible(self, tmp_path):
        p1, p2 = str(tmp_path / "a.key"), str(tmp_path / "b.key")
        run("keygen", "--scheme", "gacd", "--rho", "7", "--seed", SEED, "--out", p1)
        run("keygen", "--scheme", "gacd", "--rho", "7", "--seed", SEED, "--out", p2)
        assert open(p1).read() == open(p2).read()
        run("keygen", "--scheme", "gacd", "--rho", "7", "--seed", SEED2, "--out", p2)
        assert open(p1).read() != open(p2).read()

    def test_env_seed(self, tmp_path, monkeypatch):
        p1, p2 = str(tmp_path / "a.key"), str(tmp_path / "b.key")
        run("keygen", "--scheme", "gacd", "--rho", "7", "--seed", SEED, "--out", p1)
        monkeypatch.setenv(cli.SEED_ENV, SEED)
        run("keygen", "--scheme", "gacd", "--rho", "7", "--out", p2)
        assert open(p1).read() == open(p2).read()

    def test_opf_requires_power_of_two(self, tmp_path, capsys):
        rc = run("keygen", "--scheme", "opf-beta", "--M", "100",
                 "--out", str(tmp_path / "x.key"))
        assert rc == cli.EXIT_PARAMS
        assert "power-of-two" in capsys.readouterr().err

    def test_opf_key_loads(self, beta_key):
        key = opf.load_key(beta_key)
        assert key.M == 128 and key.N == 2**20


class TestEncryptDecrypt:
    def test_roundtrip_byte_identical(self, tmp_path, gacd_key):
        plain = str(tmp_path / "p.txt")
        with open(plain, "w") as fh:
            fh.write("0\n5\n128\n64\n5\n")
        ct, out = str(tmp_path / "c.txt"), str(tmp_path / "d.txt")
        assert run("encrypt", "--key", gacd_key, "--in", plain, "--seed", SEED, "--out", ct) == 0
        assert run("decrypt", "--key", gacd_key, "--in", ct, "--out", out) == 0
        assert open(out).read() == open(plain).read()

    def test_random_mode_writes_sidecar(self, tmp_path, gacd_key):
        ct = str(tmp_path / "c.txt")
        assert run("encrypt", "--key", gacd_key, "--random", "50", "--seed", SEED,
                   "--out", ct) == 0
        plains = [int(x) for x in open(ct + ".plain")]
        assert len(plains) == 50
        assert all(0 <= m < 128 for m in plains)

    def test_random_files_golden_rho127(self, tmp_path):
        # recorded with the per-value uniform_int loops and line-by-line writes
        key, ct, out = (str(tmp_path / name) for name in ("k.key", "c.txt", "d.txt"))
        assert run("keygen", "--scheme", "gacd", "--rho", "127", "--seed", "5e" * 32,
                   "--out", key) == 0
        assert run("encrypt", "--key", key, "--random", "3000", "--seed", "6f" * 32,
                   "--out", ct) == 0
        assert run("decrypt", "--key", key, "--in", ct, "--out", out) == 0

        def sha(path):
            return hashlib.sha256(Path(path).read_bytes()).hexdigest()

        assert sha(key) == "f56c3ea4fd8cfe664abbe13edb16aeee9eca7c958ae37389f8b90e326fa0d179"
        plain_sha = "b90dafd834736ec62c6263f159bacd31db4105b9735370cd1534aa5be1a57259"
        assert sha(ct + ".plain") == plain_sha
        assert sha(ct) == "f6e8d0cf8ca3580e43901a159655426fdcd20322b5eb3e12a3e96a028141d112"
        assert sha(out) == plain_sha

    @pytest.mark.parametrize("text, values", [
        ("1_000\n  5  \n-3\n", [1000, 5, -3]),
        ("7\r\n8\r\n9", [7, 8, 9]),
        ("\t12\t\n+4\n0_1\n", [12, 4, 1]),
        ("1\n\n  \n2\n\n", [1, 2]),
        ("", []),
    ])
    def test_read_ints_accepts_what_int_accepts(self, tmp_path, text, values):
        path = tmp_path / "v.txt"
        path.write_bytes(text.encode())
        assert cli._read_ints(str(path)) == values

    @pytest.mark.parametrize("text, lineno", [
        ("1\n\n2\n1 2\n", 4),
        ("\n\n\nx\n", 4),
        ("5\r\n\r\n6_\r\n", 3),
    ])
    def test_read_ints_names_the_bad_line(self, tmp_path, capsys, text, lineno):
        path = tmp_path / "v.txt"
        path.write_bytes(text.encode())
        with pytest.raises(SystemExit) as info:
            cli._read_ints(str(path))
        assert info.value.code == cli.EXIT_DATA
        assert f"error: line {lineno}: not an integer" in capsys.readouterr().err

    def test_write_ints_across_chunks(self, tmp_path):
        path = tmp_path / "v.txt"
        values = list(range(-3, 2 * cli._WRITE_CHUNK + 5))
        cli._write_ints(str(path), values)
        assert path.read_text() == "".join(f"{v}\n" for v in values)

    def test_empty_input(self, tmp_path, gacd_key):
        plain = str(tmp_path / "p.txt")
        open(plain, "w").close()
        ct = str(tmp_path / "c.txt")
        assert run("encrypt", "--key", gacd_key, "--in", plain, "--out", ct) == 0
        assert open(ct).read() == ""

    def test_out_of_domain_names_line(self, tmp_path, gacd_key, capsys):
        plain = str(tmp_path / "p.txt")
        with open(plain, "w") as fh:
            fh.write("1\n129\n")
        rc = run("encrypt", "--key", gacd_key, "--in", plain, "--out", str(tmp_path / "c"))
        assert rc == cli.EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_tampered_gacd_ciphertext_still_decrypts_same(self, tmp_path, gacd_key):
        # +1 moves within the noise band, so the plaintext is unchanged
        plain = str(tmp_path / "p.txt")
        with open(plain, "w") as fh:
            fh.write("42\n")
        ct = str(tmp_path / "c.txt")
        run("encrypt", "--key", gacd_key, "--in", plain, "--seed", SEED, "--out", ct)
        c = int(open(ct).read())
        with open(ct, "w") as fh:
            fh.write(f"{c + 1}\n")
        out = str(tmp_path / "d.txt")
        assert run("decrypt", "--key", gacd_key, "--in", ct, "--out", out) == 0
        assert open(out).read() == "42\n"

    def test_foreign_gacd_ciphertext(self, tmp_path, gacd_key, capsys):
        ct = str(tmp_path / "c.txt")
        key = gacd.load_key(gacd_key)
        with open(ct, "w") as fh:
            fh.write(f"{200 * key.k}\n")
        rc = run("decrypt", "--key", gacd_key, "--in", ct, "--out", str(tmp_path / "d"))
        assert rc == cli.EXIT_DATA

    def test_opf_gap_value(self, tmp_path, beta_key, capsys):
        key = opf.load_key(beta_key)
        c = opf.opf_encrypt(64, key)
        ct = str(tmp_path / "c.txt")
        with open(ct, "w") as fh:
            fh.write(f"{c + 1}\n")
        rc = run("decrypt", "--key", beta_key, "--in", ct, "--out", str(tmp_path / "d"))
        assert rc == cli.EXIT_DATA

    def test_opf_roundtrip(self, tmp_path, beta_key):
        plain = str(tmp_path / "p.txt")
        with open(plain, "w") as fh:
            fh.write("0\n77\n128\n")
        ct, out = str(tmp_path / "c.txt"), str(tmp_path / "d.txt")
        assert run("encrypt", "--key", beta_key, "--in", plain, "--out", ct) == 0
        assert run("decrypt", "--key", beta_key, "--in", ct, "--out", out) == 0
        assert open(out).read() == open(plain).read()

    def test_opf_out_of_domain_names_line(self, tmp_path, beta_key, capsys):
        plain = str(tmp_path / "p.txt")
        with open(plain, "w") as fh:
            fh.write("1\n5\n129\n-1\n")
        rc = run("encrypt", "--key", beta_key, "--in", plain, "--out", str(tmp_path / "c"))
        assert rc == cli.EXIT_DATA
        assert "error: line 3: plaintext 129" in capsys.readouterr().err

    def test_opf_bad_ciphertext_names_first_in_input_order(self, tmp_path, beta_key, capsys):
        # the batch visits values in sorted order; the report follows the file
        key = opf.load_key(beta_key)
        c = opf.opf_encrypt(64, key)
        ct = str(tmp_path / "c.txt")
        with open(ct, "w") as fh:
            fh.write(f"{c}\n{key.N + 1}\n{c + 1}\n0\n")
        rc = run("decrypt", "--key", beta_key, "--in", ct, "--out", str(tmp_path / "d"))
        assert rc == cli.EXIT_DATA
        assert f"error: line 2: ciphertext {key.N + 1} outside" in capsys.readouterr().err

    def test_unknown_key_file(self, tmp_path, capsys):
        bogus = str(tmp_path / "k.key")
        with open(bogus, "w") as fh:
            fh.write("scheme=other/1\n")
        assert run("decrypt", "--key", bogus, "--in", bogus, "--out", bogus) == cli.EXIT_PARAMS


class TestSortVerify:
    def make_batch(self, tmp_path, key_path, n=200):
        ct = str(tmp_path / "c.txt")
        assert run("encrypt", "--key", key_path, "--random", str(n), "--seed", SEED,
                   "--out", ct) == 0
        return ct

    def test_pipeline_ok(self, tmp_path, gacd_key, capsys):
        ct = self.make_batch(tmp_path, gacd_key)
        assert run("sort-verify", "--key", gacd_key, "--in", ct, "--plain", ct + ".plain") == 0
        out = capsys.readouterr().out
        assert out.startswith("ok: 200 ciphertexts")
        assert "sort" in out

    @pytest.mark.parametrize("key_name", ["gacd_key", "beta_key"])
    def test_plain_decrypts_each_ciphertext_once(self, tmp_path, key_name, request,
                                                 monkeypatch, capsys):
        key = request.getfixturevalue(key_name)
        ct = self.make_batch(tmp_path, key, n=40)
        decrypt_many, received = cli._decrypt_many, []

        def counting(*args):
            received.append(len(args[-1]))
            return decrypt_many(*args)

        monkeypatch.setattr(cli, "_decrypt_many", counting)
        assert run("sort-verify", "--key", key, "--in", ct, "--plain", ct + ".plain") == 0
        assert sum(received) == 40
        assert capsys.readouterr().out.startswith(
            "ok: 40 ciphertexts, plaintext order verified, sort ")

    def test_plain_order_check_sees_sorted_order(self, tmp_path, gacd_key, monkeypatch, capsys):
        # a decryption that is a pure function of c but not monotone, with a
        # sidecar that agrees with it: only the order check can catch it
        ct = self.make_batch(tmp_path, gacd_key, n=40)
        decrypt_many = cli._decrypt_many

        def scrambled(*args):
            return [m * 37 % 128 for m in decrypt_many(*args)]

        monkeypatch.setattr(cli, "_decrypt_many", scrambled)
        plains = [int(m) for m in open(ct + ".plain").read().split()]
        with open(ct + ".plain", "w") as fh:
            fh.write("".join(f"{m * 37 % 128}\n" for m in plains))
        ordered = [m * 37 % 128 for m in sorted(plains)]
        i = next(i for i in range(1, len(ordered)) if ordered[i] < ordered[i - 1])
        rc = run("sort-verify", "--key", gacd_key, "--in", ct, "--plain", ct + ".plain")
        assert rc == cli.EXIT_ORDER
        assert capsys.readouterr().err == f"error: order violation at sorted index {i}\n"

    def test_shuffled_sidecar_fails_order(self, tmp_path, gacd_key, capsys):
        ct = self.make_batch(tmp_path, gacd_key)
        plains = open(ct + ".plain").read().splitlines()
        plains[0], plains[-1] = plains[-1], plains[0]
        with open(ct + ".plain", "w") as fh:
            fh.write("\n".join(plains) + "\n")
        rc = run("sort-verify", "--key", gacd_key, "--in", ct, "--plain", ct + ".plain")
        assert rc == cli.EXIT_ORDER

    def test_sidecar_length_mismatch(self, tmp_path, gacd_key):
        ct = self.make_batch(tmp_path, gacd_key)
        with open(ct + ".plain", "a") as fh:
            fh.write("3\n")
        rc = run("sort-verify", "--key", gacd_key, "--in", ct, "--plain", ct + ".plain")
        assert rc == cli.EXIT_ORDER

    def test_order_violation_names_first_index(self, tmp_path, gacd_key, monkeypatch, capsys):
        # decryption is monotone, so a violation needs a decrypt that is not
        plain, ct = str(tmp_path / "p.txt"), str(tmp_path / "c.txt")
        with open(plain, "w") as fh:
            fh.write("".join(f"{m}\n" for m in range(20)))
        assert run("encrypt", "--key", gacd_key, "--in", plain, "--seed", SEED, "--out", ct) == 0
        decrypt_many = cli._decrypt_many

        def swapped(scheme, key, cts):
            ms = decrypt_many(scheme, key, cts)
            ms[5], ms[6] = ms[6], ms[5]
            return ms

        monkeypatch.setattr(cli, "_decrypt_many", swapped)
        assert run("sort-verify", "--key", gacd_key, "--in", ct) == cli.EXIT_ORDER
        assert "error: order violation at sorted index 6\n" in capsys.readouterr().err

    def test_single_line(self, tmp_path, gacd_key):
        ct = str(tmp_path / "one.txt")
        plain = str(tmp_path / "one.plain")
        with open(plain, "w") as fh:
            fh.write("7\n")
        assert run("encrypt", "--key", gacd_key, "--in", plain, "--seed", SEED, "--out", ct) == 0
        assert run("sort-verify", "--key", gacd_key, "--in", ct) == 0

    def test_corrupt_ciphertext_is_data_error(self, tmp_path, gacd_key):
        ct = self.make_batch(tmp_path, gacd_key)
        key = gacd.load_key(gacd_key)
        with open(ct, "a") as fh:
            fh.write(f"{500 * key.k}\n")
        rc = run("sort-verify", "--key", gacd_key, "--in", ct)
        assert rc == cli.EXIT_DATA


    def test_opf_gap_is_data_error(self, tmp_path, beta_key, capsys):
        key = opf.load_key(beta_key)
        cts = [opf.opf_encrypt(m, key) for m in (3, 64, 100)]
        ct = str(tmp_path / "c.txt")
        with open(ct, "w") as fh:
            fh.write("".join(f"{c}\n" for c in (cts[2], cts[1] + 1, cts[0])))
        assert run("sort-verify", "--key", beta_key, "--in", ct) == cli.EXIT_DATA
        assert "error: sorted index 1:" in capsys.readouterr().err

    def test_opf_cross_check(self, tmp_path, beta_key, capsys):
        ct = self.make_batch(tmp_path, beta_key, n=30)
        assert run("sort-verify", "--key", beta_key, "--in", ct, "--plain", ct + ".plain") == 0
        plains = open(ct + ".plain").read().splitlines()
        plains[4] = str(int(plains[4]) ^ 1)
        with open(ct + ".plain", "w") as fh:
            fh.write("\n".join(plains) + "\n")
        rc = run("sort-verify", "--key", beta_key, "--in", ct, "--plain", ct + ".plain")
        assert rc == cli.EXIT_ORDER
        assert "cross-check failed at index 4" in capsys.readouterr().err


    def test_gacd_cross_check_names_first_mismatch(self, tmp_path, gacd_key, capsys):
        ct = self.make_batch(tmp_path, gacd_key)
        plains = open(ct + ".plain").read().splitlines()
        for i in (17, 150):
            plains[i] = str(int(plains[i]) ^ 1)
        with open(ct + ".plain", "w") as fh:
            fh.write("\n".join(plains) + "\n")
        rc = run("sort-verify", "--key", gacd_key, "--in", ct, "--plain", ct + ".plain")
        assert rc == cli.EXIT_ORDER
        assert capsys.readouterr().err == "error: plaintext cross-check failed at index 17\n"


class TestSeedSeparation:
    def test_noise_stream_does_not_reveal_key(self, tmp_path):
        # With one --seed for keygen and encrypt, noise drawn from the
        # keygen stream itself repeats the bytes that made k: the first
        # offset is 2 (k - 2^lambda) or one more, so one ciphertext of a
        # known plaintext gives k.  The CLI draws noise from a child seed.
        plain = str(tmp_path / "p.txt")
        with open(plain, "w") as fh:
            fh.write("0\n")
        for i in range(8):
            seed = f"{i:02x}" * 32
            key_path, ct = str(tmp_path / f"{i}.key"), str(tmp_path / f"{i}.ct")
            assert run("keygen", "--scheme", "gacd", "--rho", "31", "--seed", seed,
                       "--out", key_path) == 0
            assert run("encrypt", "--key", key_path, "--in", plain, "--seed", seed,
                       "--out", ct) == 0
            key = gacd.load_key(key_path)

            def reveals_k(c0):
                return (c0 - key.noise_lo) - 2 * (key.k - (1 << key.params.lam)) in (0, 1)

            shared = DeterministicGenerator(seed_from_material(bytes.fromhex(seed)))
            assert reveals_k(gacd.encrypt(0, key, shared))
            assert not reveals_k(int(open(ct).read()))


class TestBench:
    def test_smoke(self, capsys):
        rc = run("bench", "--schemes", "gacd", "--rho", "7", "--count", "64",
                 "--repeat", "1", "--seed", SEED)
        assert rc == 0
        out = capsys.readouterr().out
        assert "metric=gacd.rho7.enc_us" in out
        assert "scheme" in out  # table header

    def test_beta_high_rho_skipped_with_warning(self, capsys):
        rc = run("bench", "--schemes", "opf-beta", "--rho", "127", "--count", "16",
                 "--repeat", "1", "--seed", SEED)
        assert rc == 0
        err = capsys.readouterr().err
        assert "skipping opf-beta at rho=127" in err

    @pytest.mark.parametrize("args, skipped", [
        ("--count 0", None),
        ("--count -3", None),
        ("--repeat 0", None),
        ("--rho -1", "gacd at rho=-1"),
        ("--rho 0", "gacd at rho=0"),
        ("--rho 1", "gacd at rho=1"),  # empty noise band
        ("--rho 4608", "gacd at rho=4608"),  # lambda above MAX_KEY_BITS
        ("--rho 12289", "gacd at rho=12289"),  # rho above MAX_KEY_BITS
        ("--rho 1 --schemes opf-uniform", "opf-uniform at rho=1"),  # N = 4
    ])
    def test_rejected_values(self, capsys, args, skipped):
        # a bad --count or --repeat exits 2; a rho keygen rejects is skipped
        rc = run("bench", "--schemes", "gacd", "--rho", "7", "--count", "16",
                 "--repeat", "1", "--seed", SEED, *args.split())
        err = capsys.readouterr().err
        if skipped is None:
            assert rc == cli.EXIT_PARAMS and "error:" in err
        else:
            assert rc == cli.EXIT_OK
            assert f"warning: skipping {skipped} (unsupported)" in err

    def test_each_key_built_once(self, monkeypatch, capsys):
        # a cell's key is built once per timed repeat, the first of which
        # checks keygen's rules; a cell out of bench's range builds none
        built = []
        make_key = bench.make_key
        monkeypatch.setattr(bench, "make_key", lambda *a, **kw: built.append(a[:2]) or make_key(*a, **kw))
        rc = run("bench", "--schemes", "gacd", "opf-uniform", "opf-beta", "--rho", "7", "127",
                 "--count", "8", "--repeat", "3", "--seed", SEED)
        assert rc == cli.EXIT_OK
        assert "skipping opf-beta at rho=127 (unsupported)" in capsys.readouterr().err
        assert collections.Counter(built) == {
            (scheme, 1 << rho): 3
            for scheme in ("gacd", "opf-uniform", "opf-beta") for rho in (7, 127)
            if (scheme, rho) != ("opf-beta", 127)
        }

    def test_unknown_scheme_name(self, capsys):
        # a misspelt name exits 2, as keygen's --scheme does, not an empty table
        rc = run("bench", "--schemes", "gacdx", "--rho", "7", "--count", "16",
                 "--repeat", "1", "--seed", SEED)
        assert rc == cli.EXIT_PARAMS
        assert "invalid choice: 'gacdx'" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", cli.SCHEMES)
    def test_supported_agrees_with_keygen(self, tmp_path, capsys, scheme):
        for rho in (-1, 0, 1, 2, 63, 64, 127, 4607, 4608, 6143, 6144, 12288, 12289):
            rc = run("keygen", "--scheme", scheme, "--rho", str(rho), "--seed", SEED,
                     "--out", str(tmp_path / "k.key"))
            assert rc in (cli.EXIT_OK, cli.EXIT_PARAMS)
            keygen_takes = rc == cli.EXIT_OK
            if scheme == "opf-beta" and rho > bench.BETA_MAX_RHO:
                keygen_takes = False  # bench refuses these for their cost alone
            try:
                bench.bench_scheme(scheme, rho, count=1, repeat=1, seed=cli._resolve_seed(SEED))
                bench_takes = True
            except bench.UnsupportedConfig:
                bench_takes = False
            assert bench_takes == keygen_takes, (scheme, rho)


class TestAnalyze:
    def make_sample(self, tmp_path, gacd_key, n=400):
        ct = str(tmp_path / "c.txt")
        run("encrypt", "--key", gacd_key, "--random", str(n), "--seed", SEED, "--out", ct)
        return ct

    def test_metrics(self, tmp_path, gacd_key, capsys):
        ct = self.make_sample(tmp_path, gacd_key)
        key = gacd.load_key(gacd_key)
        c = int(open(ct).read().splitlines()[0])
        rc = run("analyze", "--in", ct, "--M", "128", "--challenge", str(c))
        assert rc == 0
        out = capsys.readouterr().out
        assert "metric=k_hat" in out
        assert "metric=leakage_bits" in out
        assert "metric=m_hat" in out
        assert "metric=radius_fail" in out
        k_hat = float(next(l for l in out.splitlines() if "k_hat" in l).split()[1].split("=")[1])
        assert abs(k_hat - key.k) / key.k < 0.05

    def test_bruteforce_reports_candidates(self, tmp_path, gacd_key, capsys):
        ct = self.make_sample(tmp_path, gacd_key)
        key = gacd.load_key(gacd_key)
        lo, hi = key.k - 500, key.k + 500
        rc = run("analyze", "--in", ct, "--M", "128", "--bruteforce", f"{lo}..{hi}")
        assert rc == 0
        out = capsys.readouterr().out
        assert "metric=bruteforce_candidates" in out
        assert f"candidate_k={key.k}" in out

    def test_bruteforce_budget_is_params_error(self, tmp_path, gacd_key, capsys):
        ct = self.make_sample(tmp_path, gacd_key)
        rc = run("analyze", "--in", ct, "--M", "128", "--bruteforce", f"2..{2 + (1 << 25)}")
        assert rc == cli.EXIT_PARAMS

    def test_empty_sample(self, tmp_path, capsys):
        ct = str(tmp_path / "empty.txt")
        open(ct, "w").close()
        assert run("analyze", "--in", ct, "--M", "128") == cli.EXIT_DATA


DAMAGED_KEY_FILES = [
    b"scheme=gacd-ope/1\nM=128\nk=600000\n",  # no lambda
    b"scheme=gacd-ope/1\nlambda=3\nM=128\nk=9\n",  # fails validate_params
    b"scheme=gacd-ope/1\nlambda=3\nM=2\nk=9\n",  # empty noise band
    b"scheme=opf/1\nsampler=beta\nr_bits=4\nN=256\nseed_hex=zz\n",
    b"scheme=opf/1\nsampler=uniform\nr_bits=1\nN=4\nseed_hex=" + b"00" * 32 + b"\n",
    b"\xff\xfe\x00scheme",  # not UTF-8
    b"scheme=gacd-ope/1\nlambda=19\nM=128\nk=\xff\n",  # not UTF-8 after the tag
]
HUGE_KEY_FILES = {
    "gacd-lambda-20-digits": "scheme=gacd-ope/1\nlambda=" + "9" * 20 + "\nM=128\nk=524309\n",
    "gacd-lambda-1e8": "scheme=gacd-ope/1\nlambda=100000000\nM=128\nk=524309\n",
    "opf-r_bits-20-digits":
        "scheme=opf/1\nsampler=beta\nr_bits=" + "9" * 20 + "\nN=256\nseed_hex=" + "00" * 32,
    "opf-r_bits-1e8":
        "scheme=opf/1\nsampler=beta\nr_bits=100000000\nN=256\nseed_hex=" + "00" * 32,
    # valid but for the key size limit, which a loaded key meets as keygen's does
    "gacd-lambda-12289": f"scheme=gacd-ope/1\nlambda=12289\nM=128\nk={(1 << 12289) + 1}\n",
    "opf-r_bits-6144":
        f"scheme=opf/1\nsampler=beta\nr_bits=6144\nN={1 << 12288}\nseed_hex=" + "00" * 32,
    # valid but for opf-beta's cost ceiling, N <= 2^1000
    "opf-beta-N-2^1001":
        f"scheme=opf/1\nsampler=beta\nr_bits=500\nN={1 << 1001}\nseed_hex=" + "00" * 32,
}


class TestMalformedInput:
    """Each case exits with its documented code and a message, not a traceback."""

    def test_non_integer_line_names_it(self, tmp_path, gacd_key, capsys):
        plain = str(tmp_path / "p.txt")
        with open(plain, "w") as fh:
            fh.write("1\n\n2\nthree\n4\n")
        rc = run("encrypt", "--key", gacd_key, "--in", plain, "--seed", SEED,
                 "--out", str(tmp_path / "c"))
        assert rc == cli.EXIT_DATA
        assert "error: line 4" in capsys.readouterr().err

    def test_missing_key_file(self, tmp_path, capsys):
        plain = str(tmp_path / "p.txt")
        with open(plain, "w") as fh:
            fh.write("1\n")
        rc = run("encrypt", "--key", str(tmp_path / "nokey"), "--in", plain,
                 "--out", str(tmp_path / "c"))
        assert rc == cli.EXIT_PARAMS
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, gacd_key, capsys):
        rc = run("decrypt", "--key", gacd_key, "--in", str(tmp_path / "nofile"),
                 "--out", str(tmp_path / "d"))
        assert rc == cli.EXIT_PARAMS
        assert "error:" in capsys.readouterr().err

    def test_bad_seed_hex(self, tmp_path, monkeypatch, capsys):
        out = str(tmp_path / "x.key")
        assert run("keygen", "--scheme", "gacd", "--rho", "7", "--seed", "xyz",
                   "--out", out) == cli.EXIT_PARAMS
        monkeypatch.setenv(cli.SEED_ENV, "abc")  # odd length
        assert run("keygen", "--scheme", "gacd", "--rho", "7", "--out", out) == cli.EXIT_PARAMS
        assert "hex" in capsys.readouterr().err

    def test_analyze_zero_domain(self, tmp_path, capsys):
        ct = str(tmp_path / "c.txt")
        with open(ct, "w") as fh:
            fh.write("5\n9\n")
        assert run("analyze", "--in", ct, "--M", "0") == cli.EXIT_PARAMS
        assert "--M" in capsys.readouterr().err


    def test_opf_keygen_range_too_small(self, tmp_path, capsys):
        out = str(tmp_path / "x.key")
        assert run("keygen", "--scheme", "opf-beta", "--rho", "7", "--N", "5",
                   "--out", out) == cli.EXIT_PARAMS
        assert "below M^2" in capsys.readouterr().err
        # M=2 with the default N=4 leaves no room for the endpoints
        assert run("keygen", "--scheme", "opf-uniform", "--rho", "1",
                   "--out", out) == cli.EXIT_PARAMS

    def test_gacd_keygen_empty_noise_band(self, tmp_path, capsys):
        assert run("keygen", "--scheme", "gacd", "--rho", "1",
                   "--out", str(tmp_path / "x.key")) == cli.EXIT_PARAMS
        assert "noise band" in capsys.readouterr().err

    @pytest.mark.parametrize("content", DAMAGED_KEY_FILES)
    def test_damaged_key_file(self, tmp_path, capsys, content):
        key, plain = tmp_path / "bad.key", tmp_path / "p.txt"
        key.write_bytes(content)
        plain.write_text("1\n")
        rc = run("encrypt", "--key", str(key), "--in", str(plain), "--out", str(tmp_path / "c"))
        assert rc == cli.EXIT_PARAMS
        assert "error:" in capsys.readouterr().err


    def test_encrypt_needs_exactly_one_source(self, tmp_path, gacd_key, capsys):
        plain = str(tmp_path / "p.txt")
        with open(plain, "w") as fh:
            fh.write("1\n")
        out = str(tmp_path / "c")
        assert run("encrypt", "--key", gacd_key, "--out", out) == cli.EXIT_PARAMS
        assert run("encrypt", "--key", gacd_key, "--in", plain, "--random", "3",
                   "--out", out) == cli.EXIT_PARAMS
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["abc", "1..2..3", "..", "1..", "-1..5", "1.5..2"])
    def test_bruteforce_range_is_strict(self, tmp_path, capsys, value):
        ct = str(tmp_path / "c.txt")
        with open(ct, "w") as fh:
            fh.write("5\n9\n")
        assert run("analyze", "--in", ct, "--M", "128", "--bruteforce", value) == cli.EXIT_PARAMS
        assert "error:" in capsys.readouterr().err

    def test_bad_value_line_counts_blank_lines(self, tmp_path, gacd_key, capsys):
        plain = str(tmp_path / "p.txt")
        with open(plain, "w") as fh:
            fh.write("1\n\n5\n999\n")
        rc = run("encrypt", "--key", gacd_key, "--in", plain, "--out", str(tmp_path / "c"))
        assert rc == cli.EXIT_DATA
        assert "error: line 4: plaintext 999" in capsys.readouterr().err

    def test_bad_ciphertext_line_counts_blank_lines(self, tmp_path, gacd_key, capsys):
        plain, ct = str(tmp_path / "p.txt"), str(tmp_path / "c.txt")
        with open(plain, "w") as fh:
            fh.write("42\n")
        assert run("encrypt", "--key", gacd_key, "--in", plain, "--seed", SEED, "--out", ct) == 0
        c = int(open(ct).read())
        foreign = 200 * gacd.load_key(gacd_key).k
        with open(ct, "w") as fh:
            fh.write(f"\n{c}\n  \n{foreign}\n")
        rc = run("decrypt", "--key", gacd_key, "--in", ct, "--out", str(tmp_path / "d"))
        assert rc == cli.EXIT_DATA
        assert "error: line 4:" in capsys.readouterr().err
        with open(plain, "w") as fh:
            fh.write("42\n0\n")
        assert run("sort-verify", "--key", gacd_key, "--in", ct, "--plain", plain) == cli.EXIT_DATA
        assert "error: line 4:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("--scheme", "gacd", "--rho", "-1"),
        ("--scheme", "gacd", "--rho", "0"),
        ("--scheme", "gacd", "--rho", "9" * 20),
        ("--scheme", "gacd", "--rho", "100000"),
        ("--scheme", "gacd", "--rho", "7", "--lambda", "9" * 20),
        ("--scheme", "gacd", "--M", "9" * 4000),
        ("--scheme", "opf-uniform", "--rho", "6145"),
        ("--scheme", "opf-beta", "--rho", "7", "--N", "9" * 4000),
    ])
    def test_keygen_out_of_range(self, tmp_path, capsys, args):
        assert run("keygen", *args, "--out", str(tmp_path / "x.key")) == cli.EXIT_PARAMS
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", HUGE_KEY_FILES.values(), ids=HUGE_KEY_FILES.keys())
    def test_key_file_with_huge_sizes(self, tmp_path, capsys, content):
        key, plain = tmp_path / "bad.key", tmp_path / "p.txt"
        key.write_text(content)
        plain.write_text("1\n")
        rc = run("encrypt", "--key", str(key), "--in", str(plain), "--out", str(tmp_path / "c"))
        assert rc == cli.EXIT_PARAMS
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, challenge, expected", [
        ("0\n0\n", "5", None),  # k_hat = 0: no challenge estimate, exit 3
        # k_hat beyond the float range: (10^400 - 1) / 128
        ("9" * 400 + "\n", None, {"k_hat": "7.8125e+397"}),
        # m_hat beyond the float range: (10^400 - 1) / (5/128), radii m/2 and m ln 2
        ("5\n", "9" * 400, {"k_hat": "0.0390625", "m_hat": "2.56e+401",
                             "radius_fail": "1.28e+401", "radius_succeed": "1.77446e+401"}),
    ], ids=["zero-maximum", "huge-sample", "huge-challenge"])
    def test_analyze_estimates_out_of_range(self, tmp_path, capsys, lines, challenge, expected):
        ct = tmp_path / "c.txt"
        ct.write_text(lines)
        extra = ("--challenge", challenge) if challenge else ()
        rc = run("analyze", "--in", str(ct), "--M", "128", *extra)
        out, err = capsys.readouterr()
        if expected is None:
            assert rc == cli.EXIT_DATA
            assert "error:" in err
        else:
            assert rc == cli.EXIT_OK
            values = dict(line.split()[0:2] for line in out.splitlines())
            assert {k: values[f"metric={k}"] for k in expected} == {
                k: f"value={v}" for k, v in expected.items()}


GOOD_KEYS = [
    "scheme=gacd-ope/1\nlambda=19\nM=128\nk=524309\n",
    "scheme=opf/1\nsampler=beta\nr_bits=7\nN=1048576\nseed_hex=" + "ab" * 32 + "\n",
    "scheme=opf/1\nsampler=uniform\nr_bits=7\nN=16384\nseed_hex=" + "cd" * 32 + "\n",
]
JUNK_LINES = [
    "", "  ", "0", "1", "-1", "5", "127", "128", "129", "abc", "1_0", "+5", "5.0", "\r",
    "9" * 400, "-" + "9" * 300, "=", "lambda=3", "lambda=" + "9" * 20, "M=0", "M=-5",
    "M=" + "9" * 300, "k=1", "k=" + "7" * 300, "N=0", "N=" + "9" * 4000, "r_bits=0",
    "r_bits=200", "r_bits=" + "9" * 20, "sampler=x", "seed_hex=00",
]
JUNK_ARGS = [
    "-1", "0", "1", "2", "5", "7", "15", "64", "abc", "", "1.5", "0x10", " 7", "9" * 20,
    "-" + "9" * 20, "12289", "100000", "9" * 400, "1..2..3", "5..3", "2..9", "..", "1..",
]


def splice_lines(key_and_edits):
    key, edits = key_and_edits
    lines = key.split("\n")
    for pos, line, replace in edits:
        pos %= len(lines)
        if replace:
            lines[pos] = line
        else:
            lines.insert(pos, line)
    return "\n".join(lines).encode()


JUNK_FILES = st.one_of(
    st.sampled_from(GOOD_KEYS).map(str.encode),
    st.tuples(
        st.sampled_from(GOOD_KEYS),
        st.lists(st.tuples(st.integers(0, 5), st.sampled_from(JUNK_LINES), st.booleans()),
                 min_size=1, max_size=3),
    ).map(splice_lines),
    st.lists(st.sampled_from(JUNK_LINES), max_size=6).map(lambda ls: "\n".join(ls).encode()),
    st.binary(max_size=24),
)
# per command, each option's values; KEY, IN and OUT name the junk files.
# bench is left out: it is a timing run with no input files.
OPTIONS = {
    "keygen": {"--scheme": ["gacd", "opf-uniform", "opf-beta", "x"], "--M": JUNK_ARGS,
               "--rho": JUNK_ARGS, "--lambda": JUNK_ARGS, "--N": JUNK_ARGS,
               "--n-hint": JUNK_ARGS, "--seed": [SEED, "zz", "", "ab"], "--out": ["OUT"]},
    "encrypt": {"--key": ["KEY"], "--in": ["IN", "KEY"], "--random": ["0", "5", "-3", "abc"],
                "--seed": [SEED, "zz"], "--out": ["OUT"]},
    "decrypt": {"--key": ["KEY"], "--in": ["IN", "KEY"], "--out": ["OUT"]},
    "sort-verify": {"--key": ["KEY"], "--in": ["IN"], "--plain": ["IN", "KEY"]},
    "analyze": {"--in": ["IN", "KEY"], "--M": JUNK_ARGS, "--challenge": JUNK_ARGS,
                "--bruteforce": JUNK_ARGS},
}


@st.composite
def junk_argv(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for option, values in OPTIONS[command].items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [option, value]
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=junk_argv(), key=JUNK_FILES, infile=JUNK_FILES)
def test_junk_never_ends_in_a_traceback(argv, key, infile):
    """Any command line over junk key and input files exits with a
    documented code; a nonzero one comes with an error message."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"KEY": os.path.join(tmp, "k.key"), "IN": os.path.join(tmp, "in.txt"),
                 "OUT": os.path.join(tmp, "out.txt")}
        Path(paths["KEY"]).write_bytes(key)
        Path(paths["IN"]).write_bytes(infile)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = cli.main([paths.get(a, a) for a in argv])
    assert rc in (cli.EXIT_OK, cli.EXIT_PARAMS, cli.EXIT_DATA, cli.EXIT_ORDER)
    assert rc == cli.EXIT_OK or "error" in err.getvalue()


ROOT = Path(__file__).resolve().parent.parent


def _fresh_python(*args):
    """Run python with args in a new interpreter on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env, timeout=60,
                          capture_output=True, text=True)


#: Modules that importing acdope.cli must not load: test oracles, the modules
#: of the commands that import their own, and both schemes.
NOT_AT_START = ("scipy", "mpmath", "statistics", "dataclasses", "acdope.analysis",
                "acdope.bench", "acdope.gacd", "acdope.opf", "acdope.betadist")


@pytest.mark.parametrize("module", NOT_AT_START)
def test_import_does_not_load(module):
    code = f"import sys, acdope.cli; sys.exit(int({module!r} in sys.modules))"
    result = _fresh_python("-c", code)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("scheme, not_loaded", [
    ("gacd", {"acdope.opf", "acdope.betadist"}),
    ("opf-beta", {"acdope.gacd"}),
], ids=["gacd", "opf-beta"])
def test_encrypt_loads_only_its_scheme(tmp_path, scheme, not_loaded):
    key, plain, ct = tmp_path / "k.key", tmp_path / "p.txt", tmp_path / "c.txt"
    assert run("keygen", "--scheme", scheme, "--rho", "7", "--seed", SEED, "--out", str(key)) == 0
    plain.write_text("".join(f"{m}\n" for m in range(0, 128, 9)))
    result = _fresh_python("-X", "importtime", "-m", "acdope.cli", "encrypt", "--key", str(key),
                           "--in", str(plain), "--seed", SEED, "--out", str(ct))
    assert result.returncode == 0, result.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
              if line.startswith("import time:")}
    assert f"acdope.{scheme.partition('-')[0]}" in loaded
    assert not loaded & not_loaded
    assert len(ct.read_text().split()) == 15


def test_opf_beta_runs_without_mpmath(tmp_path):
    """mpmath is only a test oracle: with its import blocked, opf-beta (whose
    normal path covers most frames) reproduces its golden ciphertexts, and a
    keygen -> encrypt -> sort-verify -> decrypt pass runs through cli.main."""
    plaintexts = {rho: [m for m, _ in pairs] for rho, pairs in OPF_GOLDEN.items()}
    ms = plaintexts[15]
    (tmp_path / "p.txt").write_text("".join(f"{m}\n" for m in ms))
    code = (
        "import json, sys\n"
        "sys.modules['mpmath'] = None  # any import of it raises ImportError\n"
        "from acdope import cli, opf\n"
        "from acdope.prng import Seed\n"
        "d = sys.argv[1]\n"
        f"seed = Seed(bytes([{GOLDEN_KEY_SEED}]) * 32)\n"
        "golden = {rho: [opf.opf_encrypt(m, opf.make_opf_key(rho, opf.Sampler.BETA, "
        f"master_seed=seed)) for m in ms] for rho, ms in {plaintexts!r}.items()}}\n"
        "rcs = [cli.main(argv.split()) for argv in (\n"
        f"    f'keygen --scheme opf-beta --rho 15 --seed {SEED} --out {{d}}/k.key',\n"
        "    f'encrypt --key {d}/k.key --in {d}/p.txt --out {d}/c.txt',\n"
        "    f'sort-verify --key {d}/k.key --in {d}/c.txt --plain {d}/p.txt',\n"
        "    f'decrypt --key {d}/k.key --in {d}/c.txt --out {d}/d.txt')]\n"
        "print(json.dumps([golden, rcs, sys.modules['mpmath']]))\n"
    )
    result = _fresh_python("-c", code, str(tmp_path))
    assert result.returncode == 0, result.stderr
    golden, rcs, mpmath_module = json.loads(result.stdout.splitlines()[-1])
    assert golden == {str(rho): [c for _, c in pairs] for rho, pairs in OPF_GOLDEN.items()}
    assert rcs == [cli.EXIT_OK] * 4
    assert mpmath_module is None
    key = opf.load_key(tmp_path / "k.key")
    cts = [int(line) for line in (tmp_path / "c.txt").read_text().split()]
    assert cts == opf.opf_encrypt_many(ms, key)
    assert [int(line) for line in (tmp_path / "d.txt").read_text().split()] == ms


def test_window_experiment_script_runs():
    result = _fresh_python(str(ROOT / "scripts" / "window_experiment.py"), "--M-bits", "8",
                           "--lam", "25", "--trials", "2", "--n", "10")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0].split() == ["n", "succeed_radius", "fail_radius"]


def _exception_classes():
    """Every exception class that an acdope module defines."""
    for info in pkgutil.iter_modules(acdope.__path__):
        module = importlib.import_module(f"acdope.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                yield obj


@pytest.mark.parametrize("cls", _exception_classes(), ids=lambda c: c.__qualname__)
def test_exception_contract(monkeypatch, capsys, cls):
    # perfbench counts a ValueError as a failed op; anything else aborts a run
    assert issubclass(cls, ValueError)
    if issubclass(cls, errors.ParameterError):
        expected = cli.EXIT_PARAMS
    elif issubclass(cls, errors.DomainError):
        expected = cli.EXIT_DATA
    else:
        return

    def fail(args):
        raise cls("bad value")

    monkeypatch.setattr(cli, "cmd_decrypt", fail)
    assert run("decrypt", "--key", "k", "--in", "c", "--out", "d") == expected
    assert capsys.readouterr().err == "error: bad value\n"


KEY_FILES = [
    *DAMAGED_KEY_FILES,
    *(text.encode() for text in HUGE_KEY_FILES.values()),
    *(text.encode() for text in MALFORMED_KEY_FILES),
    b"lambda=19\nM=128\nscheme=gacd-ope/1\nk=524309\n",
    b"sampler=beta\nr_bits=7\nN=1048576\nscheme=opf/1\nseed_hex=" + b"ab" * 32 + b"\n",
]


@pytest.mark.parametrize("content", KEY_FILES)
def test_cli_and_load_key_accept_the_same_key_files(tmp_path, content):
    path = tmp_path / "k.key"
    path.write_bytes(content)
    load_key = opf.load_key if b"scheme=opf/" in content else gacd.load_key
    keys = []
    for load in (load_key, lambda path: cli._load_any_key(path)[1]):
        try:
            keys.append(load(path))
        except errors.ParameterError:
            keys.append(None)
    assert keys[0] == keys[1]
