from giftnn.cli import blas_setup


def blas_line() -> str:
    # the pinned digests hold on one BLAS set-up (tests/test_digests.py): name the one this run used
    return f"giftnn BLAS set-up: {blas_setup()}"


def pytest_report_header(config):
    return blas_line()


def pytest_terminal_summary(terminalreporter, config):
    if config.option.verbose < 0:  # -q drops the header, so a quiet log names the set-up at its end
        terminalreporter.write_line(blas_line())
