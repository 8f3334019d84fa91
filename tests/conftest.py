from pathlib import Path

import pytest

from jpbib.enamdict import iter_records, open_dictionary
from jpbib.matching import NameDictionary

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def names_fixture_path() -> Path:
    return FIXTURES / "names_fixture.txt"


def fixture_records(path: Path, include_unclassified: bool = False) -> list:
    """The dictionary fixture's records, as -e parses them."""
    with open_dictionary(str(path)) as lines:
        return list(iter_records(lines, lambda warning: None, include_unclassified))


@pytest.fixture(scope="session")
def name_records(names_fixture_path):
    return fixture_records(names_fixture_path)


def dictionary_of(records) -> NameDictionary:
    """The dictionary of ``records``, built from their (surface, latin,
    types) rows as -h builds it from the store's."""
    return NameDictionary((r.surface, r.latin, r.types) for r in records)


@pytest.fixture(scope="session")
def name_dictionary(name_records) -> NameDictionary:
    return dictionary_of(name_records)


@pytest.fixture(scope="session")
def name_dictionary_with_u(names_fixture_path) -> NameDictionary:
    return dictionary_of(fixture_records(names_fixture_path, include_unclassified=True))
