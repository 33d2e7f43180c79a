"""Shared test configuration: per-pack pytest markers.

Every registered domain pack contributes a ``pack_<marker>`` mark (e.g.
``pack_qlinear`` for the dense-linear-order pack), applied automatically to
any test whose id mentions the pack's canonical name or an alias — so
``pytest -m pack_qlinear`` runs exactly the registry-parametrized tests that
exercise that pack.
"""

import pytest

from repro.domains import available_domains, domain_aliases, get_pack


def _pack_markers():
    """canonical name -> marker slug, plus alias -> marker slug."""
    markers = {}
    for name in available_domains():
        markers[name] = get_pack(name).marker or name
    for alias, canonical in domain_aliases().items():
        markers.setdefault(alias, markers[canonical])
    return markers


def pytest_configure(config):
    seen = set()
    for marker in _pack_markers().values():
        if marker not in seen:
            seen.add(marker)
            config.addinivalue_line(
                "markers",
                f"pack_{marker}: tests exercising the {marker} domain pack",
            )


def pytest_collection_modifyitems(config, items):
    markers = _pack_markers()
    for item in items:
        if "[" not in item.name:
            continue
        params = item.name[item.name.index("[") + 1:].rstrip("]")
        for token in params.split("-"):
            marker = markers.get(token.lower())
            if marker is not None:
                item.add_marker(getattr(pytest.mark, f"pack_{marker}"))
