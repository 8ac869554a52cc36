import logging

import pytest


@pytest.fixture(autouse=True)
def corpus_cache(tmp_path_factory, monkeypatch):
    """Each test's own corpus cache directory, empty when the test starts.

    It lies outside the test's ``tmp_path``, which some tests list, so no
    test reads an entry that another wrote and none writes under ``$HOME``.
    The package logger's level, which every ``cli.main`` sets, is reset
    after the test.
    """
    path = tmp_path_factory.mktemp("corpus-cache")
    monkeypatch.setenv("LAMP_ENTROPY_CACHE_DIR", str(path))
    yield path
    logging.getLogger("lamp_entropy").setLevel(logging.NOTSET)
