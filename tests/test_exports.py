import pytest

from vacuum_shake import coupling, dressing, fock, modes, radiation, scattering, table


@pytest.mark.parametrize("module", [modes, coupling, dressing, fock, radiation,
                                    scattering, table],
                         ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_every_export_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
