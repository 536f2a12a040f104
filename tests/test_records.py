"""The public result records: keyword construction, immutability, value semantics, repr, pickling.

These are the contract callers and the process pool rely on, whatever
the records are built from. The input checks of Trinomial and QuadElem,
and QuadElem's reduction mod m, are tested in test_trinomial and test_quadring.
"""

import pickle

import pytest

from wallsunsun import (
    Factorization,
    IndexVerdict,
    MonogenicityReport,
    QuadElem,
    SearchHit,
    SearchResult,
    Trinomial,
    WssClassification,
    WssHypotheses,
)

FACTORIZATION = Factorization(n=360, factors=((2, 3), (3, 2), (5, 1)))
TRINOMIAL = Trinomial(N=10, M=5, A=-1, B=-1)
VERDICT = IndexVerdict(q=5, divides_index=False, item_used=4, detail="degree 0")
CLASSIFICATION_FIELDS = {
    "k": 2,
    "p": 13,
    "delta": -1,
    "delta_applicable": True,
    "pi_p": 28,
    "pi_p2": 364,
    "by_period": False,
    "by_entry": False,
    "by_alpha": False,
    "by_monogenic": False,
    "entry_alpha_derived": False,
    "consistent": True,
}
CLASSIFICATION = WssClassification(**CLASSIFICATION_FIELDS)
HIT = SearchHit(k=2, p=13, pi_p=28, pi_p2=28, classification=CLASSIFICATION)

# (class, keyword arguments in field order, one field override that changes the value)
RECORDS = [
    (Factorization, {"n": 360, "factors": ((2, 3), (3, 2), (5, 1))}, {"n": 361}),
    (Trinomial, {"N": 10, "M": 5, "A": -1, "B": -1}, {"A": -2}),
    (
        IndexVerdict,
        {"q": 5, "divides_index": False, "item_used": 4, "detail": "degree 0"},
        {"divides_index": True},
    ),
    (
        MonogenicityReport,
        {"trinomial": TRINOMIAL, "verdicts": (VERDICT,), "monogenic": True},
        {"monogenic": False},
    ),
    (
        WssHypotheses,
        {
            "k": 1,
            "d_value": 5,
            "four_ok": True,
            "squarefree_ok": True,
            "factorization": Factorization(n=5, factors=((5, 1),)),
        },
        {"k": 3},
    ),
    (WssClassification, CLASSIFICATION_FIELDS, {"pi_p2": 28}),
    (SearchHit, {"k": 2, "p": 13, "pi_p": 28, "pi_p2": 28, "classification": None}, {"p": 17}),
    (
        SearchResult,
        {"criterion": "all", "k_min": 1, "k_max": 3, "p_max": 20, "hits": (HIT,), "skipped_k": ()},
        {"skipped_k": (4,)},
    ),
    (QuadElem, {"a": 3, "b": 4, "k": 1, "m": 7}, {"b": 5}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, kwargs, change", RECORDS, ids=IDS)
def test_keyword_construction_and_attribute_reads(cls, kwargs, change):
    record = cls(**kwargs)
    for name, value in kwargs.items():
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls, kwargs, change", RECORDS, ids=IDS)
def test_assignment_raises_attribute_error(cls, kwargs, change):
    record = cls(**kwargs)
    for name, value in change.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) == kwargs[name]


@pytest.mark.parametrize("cls, kwargs, change", RECORDS, ids=IDS)
def test_equality_and_hash_by_value(cls, kwargs, change):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    other = cls(**{**kwargs, **change})
    assert a != other and not a == other
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("cls, kwargs, change", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, kwargs, change):
    fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(cls(**kwargs)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, kwargs, change", RECORDS, ids=IDS)
def test_pickle_round_trip(cls, kwargs, change):
    record = cls(**kwargs)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls
    assert back == record


def test_pool_payloads_pickle_with_their_nested_records():
    # A worker returns hits carrying their classification; the parent ships
    # hypotheses carrying their factorization out to the workers.
    hit = pickle.loads(pickle.dumps(HIT))
    assert type(hit.classification) is WssClassification
    assert hit.classification == CLASSIFICATION and hit.classification.is_wss is False
    hyp = WssHypotheses(
        k=1, d_value=5, four_ok=True, squarefree_ok=True, factorization=FACTORIZATION
    )
    back = pickle.loads(pickle.dumps(hyp))
    assert type(back.factorization) is Factorization
    assert back == hyp and back.factorization.primes() == (2, 3, 5)
    assert back.satisfied


def test_search_hit_classification_defaults_to_none():
    assert SearchHit(k=1, p=5, pi_p=20, pi_p2=100).classification is None
