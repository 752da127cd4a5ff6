import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdope import opf
from acdope.errors import ParameterError
from acdope.prng import DeterministicGenerator

import reference
from conftest import gen_of, seed_of


def beta_key(r_bits=7, N=2**20, seed_byte=2):
    return opf.make_opf_key(r_bits, opf.Sampler.BETA, N=N, master_seed=seed_of(seed_byte))


# seed bytes for which the uniform sampler at r_bits=7, N=2^20 happens to
# produce an injective function (checked exhaustively; the uniform baseline
# has no tail condition, so injectivity is luck of the draw)
INJECTIVE_UNIFORM_SEED = 7


def uniform_key():
    return opf.make_opf_key(
        7, opf.Sampler.UNIFORM, N=2**20, master_seed=seed_of(INJECTIVE_UNIFORM_SEED)
    )


class TestKeyConstruction:
    def test_default_range_is_M_squared(self):
        key = opf.make_opf_key(5, opf.Sampler.BETA, master_seed=seed_of(1))
        assert key.M == 32
        assert key.N == 1024

    def test_range_below_square_rejected(self):
        with pytest.raises(ParameterError):
            opf.make_opf_key(5, opf.Sampler.BETA, N=1023, master_seed=seed_of(1))

    def test_tiny_domain_rejected(self):
        with pytest.raises(ParameterError):
            opf.make_opf_key(0, opf.Sampler.BETA)

    def test_no_room_for_endpoints_rejected(self):
        # M=2, N=4 is the one square range where f(M) - f(0) > 3N/4 cannot fit
        with pytest.raises(ParameterError):
            opf.make_opf_key(1, opf.Sampler.UNIFORM, master_seed=seed_of(1))
        key = opf.make_opf_key(1, opf.Sampler.UNIFORM, N=5, master_seed=seed_of(1))
        assert opf.init_endpoints(key) == (1, 5)

    def test_beta_cost_ceiling(self):
        # above 2^1000 the Beta sampler's float guesses leave double range
        # and its cost runs away; uniform keys have no such ceiling
        key = opf.make_opf_key(500, opf.Sampler.BETA, master_seed=seed_of(1))
        assert key.N == 1 << 1000
        for r_bits, N in ((500, (1 << 1000) + 1), (500, 1 << 1001), (501, None)):
            with pytest.raises(ParameterError, match="capped at 2"):
                opf.make_opf_key(r_bits, opf.Sampler.BETA, N=N, master_seed=seed_of(1))
            opf.make_opf_key(r_bits, opf.Sampler.UNIFORM, N=N, master_seed=seed_of(1))

    def test_fresh_seed_when_omitted(self):
        a = opf.make_opf_key(4, opf.Sampler.UNIFORM)
        b = opf.make_opf_key(4, opf.Sampler.UNIFORM)
        assert a.master_seed != b.master_seed


def key_of(seed_byte):
    """A key whose master seed is seed_of(seed_byte); seed_fn is keyed by it."""
    return opf.make_opf_key(4, opf.Sampler.UNIFORM, master_seed=seed_of(seed_byte))


class TestSeedFn:
    def test_deterministic(self):
        f = opf.RangeFrame(0, 16, 3, 200)
        assert opf.seed_fn(key_of(3), f) == opf.seed_fn(key_of(3), f)

    def test_length_prefix_prevents_aliasing(self):
        # without prefixes the byte strings for (1, 23) and (12, 3) could
        # collide; the injective encoding must keep them apart
        s1 = opf.seed_fn(key_of(3), opf.RangeFrame(1, 23, 5, 9))
        s2 = opf.seed_fn(key_of(3), opf.RangeFrame(12, 3, 5, 9))
        assert s1 != s2

    def test_distinct_frames_distinct_seeds(self):
        g = gen_of(44)
        seen = set()
        for _ in range(500):
            f = opf.RangeFrame(
                g.uniform_int(0, 100), g.uniform_int(101, 200),
                g.uniform_int(1, 10**6), g.uniform_int(10**6 + 1, 10**7),
            )
            seen.add(opf.seed_fn(key_of(3), f))
        assert len(seen) == 500

    def test_keyed_by_master(self):
        f = opf.RangeFrame(0, 16, 3, 200)
        assert opf.seed_fn(key_of(3), f) != opf.seed_fn(key_of(4), f)

    def test_reference_encoding_at_byte_edges(self):
        # every placement of values whose encodings differ in length: 0 (one
        # zero byte), a byte's edge, a 4-byte length's edge, a 2-kilobit value
        key = key_of(5)
        for frame in itertools.product((0, 255, 256, 2**32, 7**800), repeat=4):
            assert opf.seed_fn(key, opf.RangeFrame(*frame)).data == \
                reference.frame_seed(key.master_seed, *frame), frame

    @given(
        frame=st.lists(st.one_of(st.sampled_from((0, 1, 255, 256, 2**32 - 1, 2**32)),
                                 st.integers(min_value=0, max_value=2**6000)),
                       min_size=4, max_size=4),
        seed_byte=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_encoding(self, frame, seed_byte):
        key = key_of(seed_byte)
        expected = reference.frame_seed(key.master_seed, *frame)
        # the second call shows the key's keyed hash was copied, not fed
        for _ in range(2):
            assert opf.seed_fn(key, opf.RangeFrame(*frame)).data == expected


class TestEndpoints:
    def test_span_condition_over_many_keys(self):
        for sb in range(100):
            key = opf.make_opf_key(6, opf.Sampler.BETA, master_seed=seed_of(sb))
            f0, fM = opf.init_endpoints(key)
            assert 1 <= f0 < fM <= key.N
            assert fM - f0 > 3 * key.N // 4

    def test_deterministic(self):
        key = beta_key()
        assert opf.init_endpoints(key) == opf.init_endpoints(key)


class TestSampleMid:
    def test_degenerate_range_rejected(self):
        with pytest.raises(opf.DomainError):
            opf.sample_mid(gen_of(45), 0, 1, 2, opf.Sampler.UNIFORM)

    def test_uniform_in_range_and_balanced(self):
        g = gen_of(46)
        counts = [0, 0]
        for _ in range(2000):
            counts[opf.sample_mid(g, 1, 1, 2, opf.Sampler.UNIFORM)] += 1
        assert abs(counts[0] / 2000 - 0.5) < 0.04

    def test_beta_mean_matches_shape(self):
        # width 8, midpoint 4: Beta(4, 5) has mean 4/9
        g = gen_of(47)
        y = 1 << 20
        n = 500
        total = sum(opf.sample_mid(g, y, 4, 8, opf.Sampler.BETA) for _ in range(n))
        assert abs(total / (n * y) - 4 / 9) < 0.02

    def test_beta_clamped_into_tail_window(self, monkeypatch):
        # Beta(1, 2) puts ~44% of its mass below 1/4, so clamps must fire; a
        # draw was clamped iff sample_mid moved it off floor(y * w)
        draws = []
        real = opf.betadist.beta_icdf_bits

        def recording(*args):
            draws.append(real(*args))
            return draws[-1]

        monkeypatch.setattr(opf.betadist, "beta_icdf_bits", recording)
        g = gen_of(48)
        y = 1000
        lo, hi = -(-y // 4), (3 * y) // 4
        clamps = 0
        for _ in range(200):
            z = opf.sample_mid(g, y, 1, 2, opf.Sampler.BETA)
            assert lo <= z <= hi
            clamps += z != (y * draws[-1]) >> 64
        assert clamps > 50

    def test_tiny_range_skips_clamp(self):
        # y <= 3 leaves no room for the tail window
        g = gen_of(49)
        for _ in range(50):
            assert 0 <= opf.sample_mid(g, 2, 1, 2, opf.Sampler.BETA) <= 2


class TestEncrypt:
    def test_deterministic(self):
        key = beta_key()
        assert all(opf.opf_encrypt(m, key) == opf.opf_encrypt(m, key) for m in range(0, 129, 17))

    def test_endpoints_fixed(self):
        key = beta_key()
        f0, fM = opf.init_endpoints(key)
        assert opf.opf_encrypt(0, key) == f0
        assert opf.opf_encrypt(key.M, key) == fM

    def test_strictly_increasing_beta(self):
        key = beta_key()
        cts = [opf.opf_encrypt(m, key) for m in range(key.M + 1)]
        assert all(b > a for a, b in zip(cts, cts[1:]))
        assert 1 <= cts[0] and cts[-1] <= key.N

    def test_nondecreasing_uniform(self):
        key = opf.make_opf_key(7, opf.Sampler.UNIFORM, N=2**20, master_seed=seed_of(33))
        cts = [opf.opf_encrypt(m, key) for m in range(key.M + 1)]
        assert all(b >= a for a, b in zip(cts, cts[1:]))

    def test_domain_check(self):
        key = beta_key()
        with pytest.raises(opf.DomainError):
            opf.opf_encrypt(-1, key)
        with pytest.raises(opf.DomainError):
            opf.opf_encrypt(key.M + 1, key)

    def test_rekey_changes_function(self):
        a = [opf.opf_encrypt(m, beta_key(seed_byte=2)) for m in range(20)]
        b = [opf.opf_encrypt(m, beta_key(seed_byte=5)) for m in range(20)]
        assert a != b

    def test_recursion_depth_for_odd_plaintext(self):
        # odd m is only resolved at the last bisection level: r frames
        key = beta_key()
        trace = []
        opf.opf_encrypt(77, key, trace=trace)
        assert len(trace) == key.r_bits
        first_frame, _ = trace[0]
        assert (first_frame.a, first_frame.b) == (0, key.M)

    def test_trace_lists_collapsed_frames(self):
        # this uniform key flattens the subrange above m = 56, so the last
        # three frames of the descent to 57 have fa == fb and draw nothing;
        # the trace still lists them, each the half of its parent holding m
        key = opf.make_opf_key(7, opf.Sampler.UNIFORM, N=2**20, master_seed=seed_of(33))
        trace = []
        c = opf.opf_encrypt(57, key, trace=trace)
        assert len(trace) == key.r_bits
        assert sum(fr.fa == fr.fb for fr, _ in trace) == 3
        a, b, fa, fb = 0, key.M, *opf.init_endpoints(key)
        for fr, fx in trace:
            assert (fr.a, fr.b, fr.fa, fr.fb) == (a, b, fa, fb)
            x = (a + b) // 2
            if 57 < x:
                b, fb = x, fx
            else:
                a, fa = x, fx
        assert trace[-1][1] == c


# (plaintext, ciphertext) pairs under GOLDEN_KEY_SEED at rho = 15 and 31
# (N = M^2), recorded before the Beta sampler's exact path was rewritten;
# fixed-seed opf-beta ciphertexts must not move.
GOLDEN_KEY_SEED = 0x5B
OPF_GOLDEN = {
    15: (
        (0, 253594315),
        (1, 253600260),
        (16384, 658794347),
        (32767, 1066976317),
        (32768, 1067014619),
        (429, 263727499),
        (5737, 393399031),
        (7293, 431486574),
        (8526, 463571686),
        (10173, 504139818),
        (19262, 730166025),
        (20984, 772695587),
        (28743, 964938264),
        (30754, 1015956065),
        (31036, 1023112591),
        (31177, 1026793464),
    ),
    31: (
        (0, 1089179288164167932),
        (1, 1089179288839064657),
        (1073741824, 2844342029749378688),
        (2147483647, 4599407753764283051),
        (2147483648, 4599407756007547858),
        (54613261, 1178449376196670369),
        (91565283, 1238860709551588247),
        (242586797, 1485714712365834019),
        (617104379, 2097882061705392380),
        (698092855, 2230279156418007152),
        (899732969, 2559854822404433437),
        (916323330, 2586970662734674161),
        (997420246, 2719537648876511550),
        (1004287812, 2730766856052254496),
        (1143217314, 2957882653272651101),
        (1951871444, 4279669822710601445),
    ),
}


class TestGoldenCiphertexts:
    @pytest.mark.parametrize("rho", sorted(OPF_GOLDEN))
    def test_beta_ciphertexts(self, rho):
        key = opf.make_opf_key(rho, opf.Sampler.BETA, master_seed=seed_of(GOLDEN_KEY_SEED))
        pairs = OPF_GOLDEN[rho]
        assert tuple((m, opf.opf_encrypt(m, key)) for m, _ in pairs) == pairs


    @pytest.mark.parametrize("rho", sorted(OPF_GOLDEN))
    def test_beta_ciphertexts_batch(self, rho):
        key = opf.make_opf_key(rho, opf.Sampler.BETA, master_seed=seed_of(GOLDEN_KEY_SEED))
        pairs = OPF_GOLDEN[rho]
        ms = [m for m, _ in pairs]
        assert tuple(zip(ms, opf.opf_encrypt_many(ms, key))) == pairs
        assert opf.opf_decrypt_many([c for _, c in pairs], key) == ms


class TestDecrypt:
    def test_roundtrip_exhaustive_beta(self):
        key = beta_key()
        for m in range(key.M + 1):
            assert opf.opf_decrypt(opf.opf_encrypt(m, key), key) == m

    def test_roundtrip_exhaustive_uniform(self):
        key = uniform_key()
        for m in range(key.M + 1):
            assert opf.opf_decrypt(opf.opf_encrypt(m, key), key) == m

    def test_replay_visits_identical_frames(self):
        key = beta_key()
        enc_trace, dec_trace = [], []
        c = opf.opf_encrypt(77, key, trace=enc_trace)
        assert opf.opf_decrypt(c, key, trace=dec_trace) == 77
        assert enc_trace == dec_trace

    def test_gap_value_rejected(self):
        key = beta_key()
        c1, c2 = opf.opf_encrypt(64, key), opf.opf_encrypt(65, key)
        assert c2 - c1 > 1  # beta mode at N = 2^20 leaves real gaps
        with pytest.raises(opf.NotACiphertextError):
            opf.opf_decrypt(c1 + 1, key)

    def test_below_image_rejected(self):
        key = beta_key()
        f0, fM = opf.init_endpoints(key)
        with pytest.raises(opf.NotACiphertextError):
            opf.opf_decrypt(f0 - 1, key)
        with pytest.raises(opf.NotACiphertextError):
            opf.opf_decrypt(fM + 1, key)

    def test_out_of_range_rejected(self):
        key = beta_key()
        with pytest.raises(opf.DomainError):
            opf.opf_decrypt(0, key)
        with pytest.raises(opf.DomainError):
            opf.opf_decrypt(key.N + 1, key)


@st.composite
def batch_case(draw, max_r_bits=15):
    """A key (either sampler, r_bits 2..max_r_bits) and a batch of its
    plaintexts with the endpoints 0 and M likely and duplicates added."""
    sampler = draw(st.sampled_from(list(opf.Sampler)))
    r_bits = draw(st.integers(min_value=2, max_value=max_r_bits))
    key = opf.make_opf_key(r_bits, sampler, master_seed=seed_of(draw(st.integers(0, 255))))
    value = st.one_of(st.integers(min_value=0, max_value=key.M), st.sampled_from([0, key.M]))
    ms = draw(st.lists(value, max_size=8))
    return key, ms + ms[: draw(st.integers(min_value=0, max_value=3))]


class TestBatch:
    """Batches, which share one midpoint lookup across their sorted values,
    against single-value descents, which share nothing."""

    @given(case=batch_case(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_many_equals_map_single(self, case, data):
        key, ms = case
        cts = [opf.opf_encrypt(m, key) for m in ms]
        assert opf.opf_encrypt_many(ms, key) == cts
        shuffled = data.draw(st.permutations(cts))
        assert opf.opf_decrypt_many(shuffled, key) == [opf.opf_decrypt(c, key) for c in shuffled]

    @given(case=batch_case(max_r_bits=8), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_failing_index_is_first_in_input_order(self, case, data):
        key, ms = case
        f0, fM = opf.init_endpoints(key)
        cts = [opf.opf_encrypt(m, key) for m in ms]
        near = [c + d for c in cts for d in (-1, 1)]  # gaps, mostly
        edges = [0, 1, f0 - 1, fM + 1, key.N, key.N + 1]
        cs = data.draw(st.lists(st.sampled_from(cts + near + edges), min_size=1, max_size=12))
        expected = None
        for i, c in enumerate(cs):
            try:
                opf.opf_decrypt(c, key)
            except (opf.DomainError, opf.NotACiphertextError) as exc:
                expected = (i, type(exc), str(exc))
                break
        if expected is None:
            assert opf.opf_decrypt_many(cs, key) == [opf.opf_decrypt(c, key) for c in cs]
            return
        with pytest.raises((opf.DomainError, opf.NotACiphertextError)) as info:
            opf.opf_decrypt_many(cs, key)
        assert (info.value.index, type(info.value), str(info.value)) == expected

    def test_encrypt_reports_first_bad_plaintext(self):
        key = beta_key()
        with pytest.raises(opf.DomainError) as info:
            opf.opf_encrypt_many([3, 0, 200, -1, 129], key)
        assert info.value.index == 2

    def test_empty_batch(self):
        key = beta_key()
        assert opf.opf_encrypt_many([], key) == []
        assert opf.opf_decrypt_many([], key) == []

    def test_shared_frames_drawn_once(self, monkeypatch):
        # a batch over the whole domain, shuffled and with every plaintext
        # twice, draws each of the M - 1 internal nodes exactly once
        key = beta_key(r_bits=5)
        ms = list(range(key.M + 1)) * 2
        ms = ms[1::2] + ms[::2]
        expected = [opf.opf_encrypt(m, key) for m in ms]
        calls = []
        real = opf._midpoint_value
        monkeypatch.setattr(opf, "_midpoint_value", lambda *a: calls.append(a[1]) or real(*a))
        assert opf.opf_encrypt_many(ms, key) == expected
        assert len(calls) == key.M - 1
        assert len({(fr.a, fr.b) for fr in calls}) == key.M - 1


def memo_frames(key):
    """Frames in the key's memo (its other entry holds the endpoints)."""
    return sum(x is not None for x in key._memo)


def outcome(fn, v, key):
    """fn(v, key), or the type and text of the error it raised."""
    try:
        return fn(v, key)
    except opf.DomainError as exc:
        return type(exc), str(exc)


class TestKeyMemo:
    """Single-value calls share the endpoints and the frames above TOP_DEPTH
    through the key's memo; batches and traced calls leave it alone."""

    @pytest.mark.parametrize("sampler", list(opf.Sampler))
    def test_warm_key_equals_fresh_key_and_batch(self, sampler):
        def key():
            return opf.make_opf_key(6, sampler, N=2**20, master_seed=seed_of(9))
        warm = key()
        ms = list(range(warm.M + 1))
        for m in ms:
            opf.opf_encrypt(m, warm)
        assert memo_frames(warm) == warm.M - 1  # the whole tree is above TOP_DEPTH
        cts = [opf.opf_encrypt(m, warm) for m in ms]
        assert cts == [opf.opf_encrypt(m, key()) for m in ms] == opf.opf_encrypt_many(ms, key())
        assert [opf.opf_decrypt(c, warm) for c in cts] == opf.opf_decrypt_many(cts, key())
        near = sorted({c + d for c in cts for d in (-1, 1)} | {1, warm.N})  # gaps, mostly
        assert [outcome(opf.opf_decrypt, c, warm) for c in near] == \
            [outcome(opf.opf_decrypt, c, key()) for c in near]

    def test_memo_holds_only_the_top_frames(self):
        key = opf.make_opf_key(opf.TOP_DEPTH + 2, opf.Sampler.UNIFORM, master_seed=seed_of(10))
        ms = list(range(key.M + 1))
        cts = [opf.opf_encrypt(m, key) for m in ms]
        assert memo_frames(key) == 2**opf.TOP_DEPTH - 1
        assert cts == opf.opf_encrypt_many(ms, opf.make_opf_key(
            opf.TOP_DEPTH + 2, opf.Sampler.UNIFORM, master_seed=seed_of(10)))

    def test_warm_key_draws_nothing_above_top_depth(self, monkeypatch):
        key = beta_key()
        c = opf.opf_encrypt(77, key)
        calls = []
        for name in ("init_endpoints", "_midpoint_value"):
            real = getattr(opf, name)
            monkeypatch.setattr(opf, name, lambda *a, real=real: calls.append(a) or real(*a))
        assert opf.opf_encrypt(77, key) == c and opf.opf_decrypt(c, key) == 77
        assert calls == []
        assert opf.opf_encrypt_many([77], key) == [c]  # the batch draws its own frames
        assert len(calls) == 1 + key.r_bits

    def test_traced_call_bypasses_memo(self):
        warm = beta_key()
        for m in range(warm.M + 1):
            opf.opf_encrypt(m, warm)
        warm_enc, fresh_enc, warm_dec, fresh_dec = [], [], [], []
        c = opf.opf_encrypt(77, warm, trace=warm_enc)
        assert c == opf.opf_encrypt(77, beta_key(), trace=fresh_enc)
        assert opf.opf_decrypt(c, warm, trace=warm_dec) == 77
        assert opf.opf_decrypt(c, beta_key(), trace=fresh_dec) == 77
        assert len(warm_enc) == warm.r_bits
        assert warm_enc == fresh_enc == warm_dec == fresh_dec

    def test_two_threads_share_a_key(self):
        def key():
            return opf.make_opf_key(9, opf.Sampler.BETA, master_seed=seed_of(11))
        ms = list(range(0, key().M + 1, 3))
        expected = opf.opf_encrypt_many(ms, key())
        shared = key()
        results = [None, None]

        def work(i, order):
            cts = {m: opf.opf_encrypt(m, shared) for m in order}
            results[i] = ([cts[m] for m in ms], [opf.opf_decrypt(cts[m], shared) for m in ms])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-frame
        try:
            threads = [threading.Thread(target=work, args=(0, ms)),
                       threading.Thread(target=work, args=(1, ms[::-1]))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [(expected, ms)] * 2


class TestCollapsedSubrange:
    def test_zero_width_frame_returns_left_value(self):
        key = opf.make_opf_key(4, opf.Sampler.UNIFORM, master_seed=seed_of(6))
        frame = opf.RangeFrame(0, 4, 10, 10)
        assert opf._midpoint_value(key, frame, 64) == 10


MALFORMED_KEY_FILES = [
    "scheme=opf/1\nsampler=beta\nr_bits=4\nN=256\nseed_hex=zz\n",
    "scheme=opf/1\nsampler=beta\nr_bits=4\nN=256\n",
    "scheme=opf/1\nsampler=gaussian\nr_bits=4\nN=256\nseed_hex=" + "00" * 32 + "\n",
    "scheme=opf/1\nsampler=beta\nr_bits=4\nN=255\nseed_hex=" + "00" * 32 + "\n",
    "scheme=opf/1\nsampler=beta\nr_bits\n",
]


class TestKeyFile:
    def test_roundtrip(self, tmp_path):
        key = beta_key()
        path = str(tmp_path / "opf.key")
        opf.save_key(key, path)
        assert opf.load_key(path) == key

    def test_format_lines(self, tmp_path):
        key = uniform_key()
        path = str(tmp_path / "opf.key")
        opf.save_key(key, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "scheme=opf/1"
        assert lines[1] == "sampler=uniform"
        assert lines[2] == "r_bits=7"
        assert lines[3] == "N=1048576"
        assert lines[4].startswith("seed_hex=")

    @pytest.mark.parametrize("text", MALFORMED_KEY_FILES)
    def test_malformed_file_rejected(self, tmp_path, text):
        path = str(tmp_path / "bad.key")
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(opf.KeyFormatError):
            opf.load_key(path)

    def test_bad_scheme_rejected(self, tmp_path):
        path = str(tmp_path / "bad.key")
        with open(path, "w") as fh:
            fh.write("scheme=nope/9\nsampler=beta\nr_bits=4\nN=256\nseed_hex=00\n")
        with pytest.raises(opf.KeyFormatError):
            opf.load_key(path)
