"""The contract of the package's immutable records: constructors with their
defaults, field equality and hash, a repr that names the fields, and no
assignment after construction."""

import pickle

import pytest

from acdope.gacd import SchemeParams, SecretKey, ValidationReport
from acdope.opf import OpfKey, RangeFrame, Sampler
from acdope.prng import Seed

PARAMS = SchemeParams(M=128, lam=19)

#: (record class, one value per field in order, another value per field)
RECORDS = [
    (Seed, {"data": b"\x01" * 32}, {"data": b"\x02" * 32}),
    (SchemeParams, {"M": 128, "lam": 19, "n_hint": 3}, {"M": 256, "lam": 20, "n_hint": None}),
    (ValidationReport,
     {"ok": True, "reasons": (), "warnings": ("thin",), "ciphertext_bits": 27,
      "expansion_ratio": 27 / 7},
     {"ok": False, "reasons": ("low",), "warnings": (), "ciphertext_bits": 28,
      "expansion_ratio": None}),
    (SecretKey, {"k": 524309, "noise_lo": 19000, "noise_hi": 505308, "params": PARAMS},
     {"k": 524310, "noise_lo": 19001, "noise_hi": 505309,
      "params": SchemeParams(M=128, lam=19, n_hint=1)}),
    (OpfKey, {"master_seed": Seed(b"\xab" * 32), "r_bits": 7, "N": 1 << 14,
              "sampler": Sampler.BETA},
     {"master_seed": Seed(b"\xcd" * 32), "r_bits": 8, "N": 1 << 16,
      "sampler": Sampler.UNIFORM}),
    (RangeFrame, {"a": 0, "b": 128, "fa": 3, "fb": 9000}, {"a": 1, "b": 64, "fa": 4, "fb": 9001}),
]


@pytest.mark.parametrize("cls, fields, others", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_contract(cls, fields, others):
    record = cls(**fields)
    positional = cls(*fields.values())
    assert record == positional and hash(record) == hash(positional)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert pickle.loads(pickle.dumps(record)) == record
    for name, other in others.items():
        changed = cls(**{**fields, name: other})
        assert changed != record, name
        with pytest.raises(AttributeError):
            setattr(record, name, other)
        assert getattr(record, name) == fields[name]
    shown = repr(record)
    assert shown.startswith(f"{cls.__name__}(")
    for name, value in fields.items():
        if cls is SecretKey and name == "params":
            assert "params" not in shown
        else:
            assert f"{name}={value!r}" in shown


def test_record_defaults():
    assert SchemeParams(128, 19).n_hint is None
    assert SchemeParams(M=128, lam=19) == SchemeParams(128, 19, None)
    assert ValidationReport(True) == ValidationReport(True, (), (), 0, None)


def test_seed_length_is_checked():
    with pytest.raises(ValueError):
        Seed(b"\x00" * 31)
    with pytest.raises(ValueError):
        Seed(b"\x00" * 33)


def test_records_of_different_classes_differ():
    assert SchemeParams(128, 19) != (128, 19, None)
    assert RangeFrame(0, 1, 2, 3) != (0, 1, 2, 3)
