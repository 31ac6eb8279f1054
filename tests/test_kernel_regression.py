"""Replay the recorded kernel corpus: inverses, roots and powers, byte for byte.

The corpus (``data/kernel_corpus.json``) was recorded with
``data/make_kernel_corpus.py`` from the geometric-series ``inv``, binomial
``root`` and binary-exponentiation ``**`` that the series kernel replaced.
Every case must give the same ``str``, ``terms`` and ``order_bound``, or the
same exception type and message.
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("make_kernel_corpus", DATA / "make_kernel_corpus.py")
corpus_maker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus_maker)

CORPUS = json.loads((DATA / "kernel_corpus.json").read_text())


def test_corpus_matches_its_generator():
    assert [(e["expr"], e["precision"], e["power"]) for e in CORPUS] == [
        tuple(case) for case in corpus_maker.cases()
    ]


@pytest.mark.parametrize("entry", CORPUS, ids=[f"case{i}" for i in range(len(CORPUS))])
def test_kernel_output_unchanged(entry):
    assert corpus_maker.record(entry["expr"], entry["precision"], entry["power"]) == entry
