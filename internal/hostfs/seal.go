package hostfs

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
)

// The storage integrity envelope. Two formats share one CRC-32C
// (Castagnoli) checksum:
//
//   - Whole-file seal (Seal/Unseal): a one-line text header
//     "%lightwsp-seal v1 crc32c=xxxxxxxx len=N" followed by the payload.
//     Every blob-cache entry is stored sealed; a reader that finds a
//     mismatching checksum or length quarantines the file instead of
//     trusting it, and a file with no header at all is a stale entry.
//
//   - Line seal (SealLine/UnsealLine): "xxxxxxxx <record>" — an 8-hex
//     CRC-32C prefix on each write-ahead journal record, so a bit flip
//     inside a record that still parses as JSON is detected and the
//     journal is truncated (and the severed tail quarantined) at the
//     first corrupt record.
//
// CRC-32C is not cryptographic; it defends against torn writes, bit rot
// and firmware lies, not an adversary with write access to the store.

// Seal errors, distinguishable with errors.Is.
var (
	// ErrNotSealed reports a file or line with no integrity envelope: a
	// blob readers treat as stale, or a journal record from before
	// sealing.
	ErrNotSealed = errors.New("hostfs: no integrity seal")
	// ErrCorrupt reports a sealed artifact whose checksum or length does
	// not match its payload — detected corruption (readers quarantine it).
	ErrCorrupt = errors.New("hostfs: integrity seal mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C of data, as used by both seal formats.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

const sealMagic = "%lightwsp-seal v1 "

// Seal wraps payload in the whole-file integrity envelope.
func Seal(payload []byte) []byte {
	hdr := fmt.Sprintf("%scrc32c=%08x len=%d\n", sealMagic, Checksum(payload), len(payload))
	out := make([]byte, 0, len(hdr)+len(payload))
	out = append(out, hdr...)
	return append(out, payload...)
}

// Unseal verifies data's whole-file envelope and returns the payload.
// It returns ErrNotSealed when no envelope is present and ErrCorrupt when
// the length or checksum disagrees with the payload.
func Unseal(data []byte) ([]byte, error) { return UnsealPayload(data, true) }

// UnsealPayload is Unseal with the integrity check optionally disabled
// (verify=false): the header is stripped but the checksum and length are
// not enforced. The escape hatch exists so the diskfuzz sabotage test can
// prove the campaign detects the corruption verification would have
// caught; production readers always verify.
func UnsealPayload(data []byte, verify bool) ([]byte, error) {
	if !bytes.HasPrefix(data, []byte(sealMagic)) {
		return nil, ErrNotSealed
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, ErrCorrupt // header itself torn
	}
	var sum uint32
	var n int
	if _, err := fmt.Sscanf(string(data[len(sealMagic):nl]), "crc32c=%08x len=%d", &sum, &n); err != nil {
		return nil, ErrCorrupt
	}
	payload := data[nl+1:]
	if !verify {
		return payload, nil
	}
	if n < 0 || n != len(payload) || Checksum(payload) != sum {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// SealLine prefixes one journal record with its 8-hex CRC-32C. The record
// must not contain a newline; the caller owns line framing.
func SealLine(record []byte) []byte {
	out := make([]byte, 0, 9+len(record))
	out = fmt.Appendf(out, "%08x ", Checksum(record))
	return append(out, record...)
}

// UnsealLine verifies one sealed journal line (without its trailing
// newline) and returns the record. ErrNotSealed means the line carries no
// checksum prefix (a legacy pre-seal record, still readable by the caller's
// fallback); ErrCorrupt means the prefix is present but wrong. verify=false
// strips the prefix without checking it (see UnsealPayload).
func UnsealLine(line []byte, verify bool) ([]byte, error) {
	if len(line) < 9 || line[8] != ' ' {
		return nil, ErrNotSealed
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return nil, ErrNotSealed
	}
	record := line[9:]
	if verify && Checksum(record) != sum {
		return nil, ErrCorrupt
	}
	return record, nil
}
