package engine

// Checkpointing. A checkpoint is a transactionally consistent snapshot of
// every table's visible rows, taken under one read transaction. Restoring a
// checkpoint and then replaying a redo log that was started *at or before*
// checkpoint time reproduces the database: v2 checkpoints record each row's
// true commit timestamp, so Recover's apply-if-newer guard makes replaying
// the overlapping log region idempotent.
//
// Why per-row timestamps matter: the checkpoint transaction's snapshot S is
// read from the oracle, but a writer that drew cts <= S before the snapshot
// began may *publish* mid-scan (publication happens after timestamp
// assignment). Flattening every row to S would make replay unable to tell
// "already in the checkpoint" from "raced in after my scan pass", silently
// dropping the racer; with true timestamps the replay decision is exact.
//
// Apply-if-newer only helps for racers whose frames land *after* the LSN the
// caller captured for the checkpoint. A racer whose frame the captured LSN
// already covers (its batch leader wrote and advanced the LSN before the
// racer's goroutine published) would be skipped by replay AND invisible to
// the scan — lost. Checkpoint therefore runs the WAL's PublishBarrier before
// drawing its snapshot timestamp: every transaction staged by then has
// published, at a commit timestamp the snapshot covers.
//
// Recovery: create the schema, RestoreCheckpoint(ckpt), then Recover(log)
// where the log covers at least everything after the LSN captured *before*
// the checkpoint began.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"preemptdb/internal/mvcc"
	"preemptdb/internal/pcontext"
)

const (
	checkpointMagic   uint32 = 0x70636b70 // "pckp", v1: rows flattened at snapTS
	checkpointMagicV2 uint32 = 0x70636b71 // v2: per-row commit timestamps
)

// Checkpoint writes a consistent snapshot of all tables to w in the v2
// format. The snapshot is one read transaction: concurrent writers are
// unaffected (MVCC), and the read transaction pins the GC horizon so the
// versions visible at the snapshot cannot be trimmed mid-scan.
func (e *Engine) Checkpoint(w io.Writer) error {
	// Before drawing the snapshot timestamp, wait out every committer caught
	// between group-commit staging and MVCC publication: their frames may
	// already be covered by an LSN the caller captured for this checkpoint,
	// so the snapshot must see their versions (at commit timestamps <= the
	// snapshot's, since timestamps are assigned before staging). Commits that
	// stage after the caller's LSN capture land past it in the log and are
	// handled by the replay's apply-if-newer guard instead.
	e.log.PublishBarrier()
	ctx := pcontext.Detached()
	tx := e.Begin(ctx)
	defer tx.Abort()
	defer e.DetachContext(ctx)
	snapTS := tx.Snapshot()

	tabs := e.tablesByID()

	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], checkpointMagicV2)
	binary.LittleEndian.PutUint64(hdr[4:], snapTS)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(tabs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}

	for _, tab := range tabs {
		if err := checkpointTable(bw, ctx, tab, snapTS); err != nil {
			return fmt.Errorf("engine: checkpoint table %q: %w", tab.name, err)
		}
	}
	return bw.Flush()
}

// checkpointTable writes one table frame: id, name, row count + CRC, then the
// rows as (key, value, cts) triples. Rows are encoded in one pass into a
// buffer before the header goes out: a second scan could observe a version
// that published between the passes (see package comment), so count, CRC and
// payload must all come from the same traversal. The buffer briefly holds one
// table's encoded rows — bounded by the table itself, which already lives in
// memory.
func checkpointTable(bw *bufio.Writer, ctx *pcontext.Context, tab *Table, snapTS uint64) error {
	var rowBuf bytes.Buffer
	var scratch []byte
	var rows uint64
	tab.primary.Scan(ctx, nil, nil, func(k []byte, rec *mvcc.Record) bool {
		data, cts, ok := mvcc.ReadCommittedAt(rec, snapTS)
		if !ok || data == nil {
			return true // never committed here, or a tombstone: not a row
		}
		scratch = binary.AppendUvarint(scratch[:0], uint64(len(k)))
		scratch = append(scratch, k...)
		scratch = binary.AppendUvarint(scratch, uint64(len(data)))
		scratch = append(scratch, data...)
		scratch = binary.AppendUvarint(scratch, cts)
		rowBuf.Write(scratch)
		rows++
		return true
	})

	var hdr []byte
	hdr = binary.LittleEndian.AppendUint32(hdr, tab.id)
	hdr = binary.AppendUvarint(hdr, uint64(len(tab.name)))
	hdr = append(hdr, tab.name...)
	hdr = binary.LittleEndian.AppendUint64(hdr, rows)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(rowBuf.Bytes()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	_, err := bw.Write(rowBuf.Bytes())
	return err
}

// RestoreCheckpoint loads a checkpoint stream (either format) into the
// engine. Tables (and their secondary indexes) must already be created,
// matching the schema at checkpoint time; rows are installed as committed
// versions — at their recorded commit timestamps for v2, flattened at the
// snapshot timestamp for v1 — and the oracle is advanced past the snapshot.
// Any CRC or structural mismatch aborts the restore with an error; the engine
// contents are then partial and the caller must discard it and fall back to
// an older checkpoint.
func (e *Engine) RestoreCheckpoint(r io.Reader) error {
	ctx := pcontext.Detached()
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("engine: checkpoint header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:])
	if magic != checkpointMagic && magic != checkpointMagicV2 {
		return fmt.Errorf("engine: not a checkpoint stream")
	}
	v2 := magic == checkpointMagicV2
	snapTS := binary.LittleEndian.Uint64(hdr[4:])
	if snapTS == 0 {
		snapTS = 1
	}
	numTables := binary.LittleEndian.Uint32(hdr[12:])

	for t := uint32(0); t < numTables; t++ {
		var idb [4]byte
		if _, err := io.ReadFull(br, idb[:]); err != nil {
			return fmt.Errorf("engine: checkpoint table %d: %w", t, err)
		}
		id := binary.LittleEndian.Uint32(idb[:])
		nameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return err
		}
		var meta [12]byte
		if _, err := io.ReadFull(br, meta[:]); err != nil {
			return err
		}
		rows := binary.LittleEndian.Uint64(meta[0:])
		wantCRC := binary.LittleEndian.Uint32(meta[8:])

		tab, ok := e.cat.Load().table(id)
		if !ok || tab.name != string(nameBuf) {
			return fmt.Errorf("engine: checkpoint table %q (id %d) not in schema", nameBuf, id)
		}

		crc := crc32.NewIEEE()
		var scratch []byte
		for i := uint64(0); i < rows; i++ {
			k, err := readBlob(br, &scratch)
			if err != nil {
				return fmt.Errorf("engine: checkpoint row key: %w", err)
			}
			key := append([]byte(nil), k...)
			v, err := readBlob(br, &scratch)
			if err != nil {
				return fmt.Errorf("engine: checkpoint row value: %w", err)
			}
			val := append([]byte(nil), v...)
			cts := snapTS
			if v2 {
				if cts, err = binary.ReadUvarint(br); err != nil {
					return fmt.Errorf("engine: checkpoint row cts: %w", err)
				}
			}
			crcFeed(crc, key, val)
			if v2 {
				var b []byte
				crc.Write(binary.AppendUvarint(b, cts))
			}

			rec, _ := tab.primary.GetOrInsert(ctx, key, mvcc.NewRecord())
			mvcc.InstallCommitted(rec, val, cts)
			tab.forEachSecondary(func(si *secondaryIndex) {
				if sk := si.extract(key, val); sk != nil {
					si.tree.Insert(ctx, secondaryKey(sk, key), rec)
				}
			})
		}
		if crc.Sum32() != wantCRC {
			return fmt.Errorf("engine: checkpoint CRC mismatch for table %q", tab.name)
		}
	}
	e.oracle.AdvanceTo(snapTS)
	return nil
}

func readBlob(br *bufio.Reader, scratch *[]byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if uint64(cap(*scratch)) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func crcFeed(crc io.Writer, k, v []byte) {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(k)))
	b = append(b, k...)
	b = binary.AppendUvarint(b, uint64(len(v)))
	b = append(b, v...)
	crc.Write(b)
}
