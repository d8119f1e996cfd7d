// Frame-level access to the WAL's record encoding, shared by the file
// log (wal.go) and the replication stream (internal/replica): the
// leader ships the exact frames Append writes, and the follower decodes
// them with the same CRC32C verification recovery uses. Keeping both
// ends on one codec is what makes the replication stream "CRC verified
// end-to-end" — a frame that survives FrameReader.Next is bit-for-bit a
// frame the leader's journal accepted.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/graph"
)

// ErrFrameCorrupt reports a frame that failed validation mid-stream: a
// torn header or body, an implausible length prefix, a CRC mismatch, or
// a payload that does not decode as a batch. File recovery treats this
// as the end of the valid prefix; a stream consumer treats it as a
// broken connection and resumes from its last applied sequence number.
var ErrFrameCorrupt = errors.New("wal: corrupt frame")

// EncodeFrame returns the wire frame for one record: the u32 length +
// u32 crc32c header followed by the seq-prefixed batch payload — the
// exact bytes Append writes to the file and the leader ships to
// followers.
func EncodeFrame(seq uint64, b graph.Batch) []byte {
	// Capacity: frame header + seq + two uvarint counts + 16 bytes/edge.
	frame := make([]byte, frameHeaderSize, frameHeaderSize+8+20+edgeBytes*(len(b.Add)+len(b.Del)))
	frame = binary.LittleEndian.AppendUint64(frame, seq)
	frame = appendBatch(frame, b)
	body := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(body, crcTable))
	return frame
}

// decodeFrameBody validates and decodes the body of a frame whose
// header (length, CRC) has already been checked.
func decodeFrameBody(body []byte) (Record, error) {
	if len(body) < 8 {
		return Record{}, fmt.Errorf("%w: body shorter than sequence prefix", ErrFrameCorrupt)
	}
	seq := binary.LittleEndian.Uint64(body[:8])
	batch, err := decodeBatch(body[8:])
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrFrameCorrupt, err)
	}
	return Record{Seq: seq, Batch: batch}, nil
}

// FrameReader iterates records from a stream of bare frames — the
// replication wire format, i.e. a WAL without its 8-byte file header.
// Every frame is CRC32C-verified before its payload is decoded.
type FrameReader struct {
	r io.Reader
}

// NewFrameReader returns a FrameReader over r. The reader does not
// buffer beyond the current frame, so r may be shared with other
// readers between Next calls (the replication stream interleaves
// one-byte message tags with frames on a single connection).
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Next returns the next record. It returns io.EOF at a clean frame
// boundary; every other failure — torn header or body, implausible
// length, CRC mismatch, undecodable payload — wraps ErrFrameCorrupt.
// Unlike Scan, which truncates a file at the first bad frame, Next
// surfaces the fault so a stream consumer can drop the connection and
// resume by sequence number.
func (fr *FrameReader) Next() (Record, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: torn frame header: %v", ErrFrameCorrupt, err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
	if length < 8 || length > maxRecordBytes {
		return Record{}, fmt.Errorf("%w: implausible length %d", ErrFrameCorrupt, length)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return Record{}, fmt.Errorf("%w: torn frame body: %v", ErrFrameCorrupt, err)
	}
	if crc32.Checksum(body, crcTable) != wantCRC {
		return Record{}, fmt.Errorf("%w: checksum mismatch", ErrFrameCorrupt)
	}
	return decodeFrameBody(body)
}
