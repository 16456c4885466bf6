//! L2 fixture: discarded Results from the cluster and reader APIs.

pub fn discards(c: &Communicator, reader: &mut RecordRunReader<'_, Element16>, e: &IoEngine) {
    let _ = c.barrier();
    c.recv(1).ok();
    c.flush();
    reader.next_rec();
    e.write_at(0, &out, 0, block, 10);
}

pub fn consumed(c: &Communicator) -> Result<(), Error> {
    let n = c.allreduce_sum(1)?;
    consume(n, c.recv(2));
    Ok(())
}
