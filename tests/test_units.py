from repro import _units


def test_time_constants_are_microseconds():
    assert _units.US == 1.0
    assert _units.MS == 1000.0
    assert _units.SEC == 1_000_000.0
    assert _units.NS == 1e-3
    assert _units.MINUTE == 60 * _units.SEC
    assert _units.HOUR == 3600 * _units.SEC


def test_size_constants():
    assert _units.KB == 1024
    assert _units.MB == 1024 ** 2
    assert _units.GB == 1024 ** 3
    assert _units.PAGE_SIZE == 4096
    assert _units.FLASH_PAGE_SIZE == 16384


def test_ms_conversions_roundtrip():
    assert _units.to_ms(1500.0) == 1.5
    assert _units.from_ms(1.5) == 1500.0
    assert _units.to_ms(_units.from_ms(7.25)) == 7.25


def test_errno_sentinels():
    from repro.errors import EIO, EBusy
    assert not EIO
    assert repr(EIO) == "EIO"
    assert not EBusy()
    assert repr(EBusy()) == "EBUSY"
