"""Remote attestation: quotes and the (simulated) Intel Attestation Service.

The flow mirrors §5.4: an enclave produces a *quote* signed by its
platform's attestation key; the IAS verifies the platform signature,
checks the platform's TCB level against the currently required one
("check the current TCB version of the remote system to see if it has
been patched against known vulnerabilities"), and returns an
*attestation verification report* signed by Intel's key.

Two client verification paths are supported, as in the paper:

* **client-verified** — the client submits the quote to the IAS itself
  (one extra network round trip, but the load is uncorrelated with
  function upload), and
* **stapled** — the Bento server pre-fetches the report and returns it
  with its response, like OCSP stapling; the client checks only the IAS
  signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.netsim.simulator import Sleep
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.obs.metrics import REGISTRY as _metrics
from repro.util.errors import ReproError
from repro.util.rng import DeterministicRandom
from repro.util.serialization import canonical_encode

# Cached registry handles (the registry resets values in place).
_HIT_ATTESTATION = _metrics.counter("cache_hits", {"layer": "attestation"})
_MISS_ATTESTATION = _metrics.counter("cache_misses", {"layer": "attestation"})

TCB_STATUS_OK = "OK"
TCB_STATUS_OUT_OF_DATE = "GROUP_OUT_OF_DATE"

# One-way latency to Intel's attestation endpoint (WAN round trip).
IAS_LATENCY_S = 0.040


class AttestationError(ReproError):
    """Bad quotes, unknown platforms, forged reports."""


@dataclass
class Quote:
    """An enclave's signed statement of its own identity."""

    platform_id: str
    measurement: str
    tcb_level: int
    report_data: bytes
    signature: bytes = b""

    def signed_body(self) -> bytes:
        """The canonical bytes covered by the signature."""
        return canonical_encode({
            "platform": self.platform_id,
            "measurement": self.measurement,
            "tcb": self.tcb_level,
            "report_data": self.report_data,
        })

    def to_wire(self) -> dict:
        """A plain-dict form safe to canonically encode."""
        return {
            "platform": self.platform_id,
            "measurement": self.measurement,
            "tcb": self.tcb_level,
            "report_data": self.report_data,
            "signature": self.signature,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "Quote":
        """Reconstruct from :meth:`to_wire` output."""
        return cls(platform_id=wire["platform"], measurement=wire["measurement"],
                   tcb_level=int(wire["tcb"]), report_data=wire["report_data"],
                   signature=wire["signature"])


@dataclass
class AttestationReport:
    """The IAS's signed verdict on a quote."""

    quote: Quote
    status: str
    timestamp: float
    signature: bytes = b""

    def signed_body(self) -> bytes:
        """The canonical bytes covered by the signature."""
        return canonical_encode({
            "quote": self.quote.to_wire(),
            "status": self.status,
            "timestamp": self.timestamp,
        })

    def verify(self, ias_key: RsaPublicKey,
               expected_measurement: Optional[str] = None,
               require_ok: bool = True) -> bool:
        """Client-side report validation.

        Checks the IAS signature, optionally the enclave measurement, and
        (by default) that the platform TCB was up to date.
        """
        if not ias_key.verify(self.signed_body(), self.signature):
            return False
        if expected_measurement is not None and \
                self.quote.measurement != expected_measurement:
            return False
        if require_ok and self.status != TCB_STATUS_OK:
            return False
        return True

    def to_wire(self) -> dict:
        """A plain-dict form safe to canonically encode."""
        return {
            "quote": self.quote.to_wire(),
            "status": self.status,
            "timestamp": self.timestamp,
            "signature": self.signature,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "AttestationReport":
        """Reconstruct from :meth:`to_wire` output."""
        return cls(quote=Quote.from_wire(wire["quote"]), status=wire["status"],
                   timestamp=float(wire["timestamp"]), signature=wire["signature"])


@dataclass
class _PlatformRecord:
    key: RsaPublicKey
    tcb_level: int
    revoked: bool = False


class IntelAttestationService:
    """The trusted third party that vouches for genuine platforms."""

    def __init__(self, rng: DeterministicRandom, required_tcb_level: int = 2,
                 latency_s: float = IAS_LATENCY_S) -> None:
        self._key = RsaKeyPair.generate(rng.fork("ias-key"))
        self._platforms: dict[str, _PlatformRecord] = {}
        self.required_tcb_level = required_tcb_level
        self.latency_s = latency_s
        self.reports_issued = 0
        # (platform_id, measurement) -> (signed_body, signature) of the
        # last quote whose platform signature checked out.  A stapled
        # flow verifies the *same* quote twice — once server-side, once
        # client-side — and the second check only needs a byte compare.
        # Reports are always re-signed fresh (timestamps differ), and any
        # platform lifecycle change evicts the platform's entries.
        self._quote_cache: dict[tuple[str, str], tuple[bytes, bytes]] = {}

    @property
    def public_key(self) -> RsaPublicKey:
        """The verification key peers should pin."""
        return self._key.public

    # -- platform management (manufacturing / patching) -----------------------

    def register_platform(self, platform_id: str, key: RsaPublicKey,
                          tcb_level: int) -> None:
        """Record a genuine platform's attestation key and TCB level."""
        self._platforms[platform_id] = _PlatformRecord(key=key, tcb_level=tcb_level)
        self._evict_platform(platform_id)

    def revoke_platform(self, platform_id: str) -> None:
        """EPID revocation (e.g., a compromised platform key)."""
        record = self._platforms.get(platform_id)
        if record is not None:
            record.revoked = True
        self._evict_platform(platform_id)

    def patch_platform(self, platform_id: str, new_tcb_level: int) -> None:
        """A microcode update raised this platform's TCB level."""
        record = self._platforms.get(platform_id)
        if record is not None:
            record.tcb_level = new_tcb_level
        self._evict_platform(platform_id)

    def _evict_platform(self, platform_id: str) -> None:
        """Drop cached quote verdicts after any platform lifecycle change."""
        for key in [k for k in self._quote_cache if k[0] == platform_id]:
            del self._quote_cache[key]

    # -- verification ------------------------------------------------------------

    def verify_quote(self, quote: Quote, now: float = 0.0) -> AttestationReport:
        """Validate a quote and issue a signed report.

        Raises :class:`AttestationError` for unknown/revoked platforms or
        a bad platform signature; an out-of-date TCB yields a report whose
        ``status`` says so (clients decide whether to accept it).
        """
        record = self._platforms.get(quote.platform_id)
        if record is None:
            raise AttestationError(f"unknown platform: {quote.platform_id}")
        if record.revoked:
            raise AttestationError(f"platform revoked: {quote.platform_id}")
        # The platform-signature check is the expensive step; a quote
        # byte-identical to the last one this platform verified (the
        # stapled-then-client-checked flow) is vouched for by compare.
        cache_key = (quote.platform_id, quote.measurement)
        body = quote.signed_body()
        cached = self._quote_cache.get(cache_key)
        if cached is not None and cached == (body, quote.signature):
            _HIT_ATTESTATION.value += 1
        else:
            _MISS_ATTESTATION.value += 1
            if not record.key.verify(body, quote.signature):
                raise AttestationError("quote signature invalid")
            self._quote_cache[cache_key] = (body, quote.signature)
        if quote.tcb_level != record.tcb_level:
            raise AttestationError("quote TCB level does not match platform record")
        status = (TCB_STATUS_OK if record.tcb_level >= self.required_tcb_level
                  else TCB_STATUS_OUT_OF_DATE)
        report = AttestationReport(quote=quote, status=status, timestamp=now)
        report.signature = self._key.sign(report.signed_body())
        self.reports_issued += 1
        return report

    def verify_quote_blocking(self, thread, quote: Quote) -> AttestationReport:
        """Quote verification including the WAN round trip to Intel."""
        yield Sleep(2.0 * self.latency_s)
        return self.verify_quote(quote, now=thread.sim.now)
