from __future__ import annotations

import pytest
from test_acceptance import _write_perf_corpus


@pytest.fixture(scope="session")
def perf_corpus(tmp_path_factory):
    """Criterion 8's 100 MB tweet capture, written once for every test that reads it: (path, bytes)."""
    path = tmp_path_factory.mktemp("perf") / "corpus.jsonl"
    corpus_bytes = _write_perf_corpus(path)
    yield path, corpus_bytes
    # pytest keeps the temporary directories of its last runs.
    path.unlink()
