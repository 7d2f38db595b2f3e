"""Command-line client.

Thin argparse front end over :class:`kesic.client.ClientSession`. Exit
codes partition failures so scripts can branch without parsing stderr:

====  =========================================================
code  meaning
====  =========================================================
0     success (command accepted / attestation healthy)
1     usage error or unexpected failure
2     authentication failure (Kerberos or device-key layer)
3     policy denial (authenticated but not authorized)
4     device-side refusal (rejected, asleep, unknown, quarantined)
5     transport failure (timeouts, unreachable endpoints)
6     attestation verified but the device memory is compromised
====  =========================================================
"""

from __future__ import annotations

import argparse
import getpass
import json
import sys

from .client import ClientConfig, ClientSession
from .errors import (
    AuthFailure,
    DeviceAsleep,
    DeviceRejected,
    DeviceUnhealthy,
    EmptyPassword,
    IdMismatch,
    KerberosAuthFailure,
    KesicError,
    NotAuthorized,
    ReplayDetected,
    SkewExceeded,
    TicketExpired,
    Timeout,
    UnknownDevice,
    UnknownPrincipal,
    error_name,
)
from .net import SocketNetwork
from .rng import Rng

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_AUTH = 2
EXIT_POLICY = 3
EXIT_DEVICE = 4
EXIT_TRANSPORT = 5
EXIT_COMPROMISED = 6

_AUTH_ERRORS = (
    AuthFailure,
    KerberosAuthFailure,
    UnknownPrincipal,
    TicketExpired,
    IdMismatch,
    SkewExceeded,
    ReplayDetected,
    EmptyPassword,
)
_DEVICE_ERRORS = (DeviceRejected, UnknownDevice, DeviceAsleep, DeviceUnhealthy)


def exit_code_for(exc: KesicError) -> int:
    if isinstance(exc, NotAuthorized):
        return EXIT_POLICY
    if isinstance(exc, _AUTH_ERRORS):
        return EXIT_AUTH
    if isinstance(exc, _DEVICE_ERRORS):
        return EXIT_DEVICE
    if isinstance(exc, Timeout):
        return EXIT_TRANSPORT
    return EXIT_ERROR


def _parse_device_addrs(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        name, sep, addr = pair.partition("=")
        if not sep or not name or not addr:
            raise argparse.ArgumentTypeError(
                f"--device-addr wants name=host:port, got {pair!r}"
            )
        out[name] = addr
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kesic-client", description="Talk to the KDC, IoT server and devices."
    )
    parser.add_argument(
        "--identity",
        required=True,
        metavar="FILE",
        help="client identity JSON written at provisioning (name, id_c, ad_c)",
    )
    parser.add_argument("--kdc-addr", default="127.0.0.1:8750", metavar="HOST:PORT")
    parser.add_argument("--isv-url", default="http://127.0.0.1:8751", metavar="URL")
    parser.add_argument(
        "--device-addr",
        action="append",
        default=[],
        metavar="NAME=HOST:PORT",
        help="repeatable device address mapping",
    )
    parser.add_argument(
        "--cache",
        metavar="FILE",
        help="credential cache path (default: ./<name>.cache.json)",
    )
    parser.add_argument(
        "--deterministic-seed",
        type=int,
        default=None,
        metavar="N",
        help="seed nonce generation for reproducible runs",
    )

    sub = parser.add_subparsers(dest="verb", required=True)

    p_login = sub.add_parser("login", help="authenticate and cache a ticket-granting ticket")
    p_login.add_argument("--password", help="password (prompted when omitted)")

    p_ticket = sub.add_parser("ticket", help="fetch a device ticket from the IoT server")
    p_ticket.add_argument("device")

    p_call = sub.add_parser("call", help="send a command to a device")
    p_call.add_argument("device")
    p_call.add_argument("cmd")
    p_call.add_argument(
        "--force",
        action="store_true",
        help="present the cached ticket even if it looks expired locally",
    )

    p_attest = sub.add_parser("attest", help="request and verify a device attestation")
    p_attest.add_argument("device")
    p_attest.add_argument("--image", required=True, metavar="FILE", help="expected memory image")

    sub.add_parser("cache", help="show the credential cache (redacted)")
    return parser


def _session(args: argparse.Namespace) -> ClientSession:
    with open(args.identity, "r", encoding="utf-8") as fh:
        config = ClientConfig.from_json_obj(
            json.load(fh),
            kdc_addr=args.kdc_addr,
            isv_url=args.isv_url,
            device_addrs=_parse_device_addrs(args.device_addr),
        )
    cache_path = args.cache if args.cache else f"{config.name}.cache.json"
    rng = Rng(args.deterministic_seed) if args.deterministic_seed is not None else Rng()
    return ClientSession(config, SocketNetwork(), rng=rng, cache_path=cache_path)


def _run(args: argparse.Namespace) -> int:
    session = _session(args)

    if args.verb == "login":
        password = args.password if args.password is not None else getpass.getpass()
        session.login(password)
        print(f"logged in as {session.config.name}")
        return EXIT_OK

    if args.verb == "ticket":
        entry = session.get_iot_ticket(args.device)
        print(
            f"ticket for {args.device} (device {entry['id_dev']}, {entry['dtype']}): "
            f"nonce={entry['nonce']}"
        )
        return EXIT_OK

    if args.verb == "call":
        outcome = session.call_device(args.device, args.cmd, force=args.force)
        if outcome.accepted:
            text = outcome.payload.decode("ascii", errors="replace")
            print(f"accepted{': ' + text if text else ''}")
            return EXIT_OK
        print(f"rejected: {outcome.verdict}", file=sys.stderr)
        return EXIT_DEVICE

    if args.verb == "attest":
        with open(args.image, "rb") as fh:
            image = fh.read()
        verdict = session.verify_attestation(args.device, image)
        print(verdict)
        return EXIT_OK if verdict == "healthy" else EXIT_COMPROMISED

    if args.verb == "cache":
        summary = session.cache.summary(session.clock.now())
        print(json.dumps(summary, indent=2, sort_keys=True))
        return EXIT_OK

    raise AssertionError(f"unhandled verb {args.verb}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except KesicError as exc:
        print(f"error: {error_name(exc)}: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
