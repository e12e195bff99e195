//! Filebench: a model-based workload generator (§4.1, \[16\]).
//!
//! "The input to this program is a model file that specifies processes and
//! threads in a workflow … The model specification language is rich and
//! allows different request types including read, write, create, delete
//! and append." We implement the subset the paper's experiments exercise —
//! read/write/append/think flowops with iosize, random/sequential, sync
//! and instances attributes — plus the OLTP personality used in §4.1.

mod engine;
mod parse;
mod spec;

pub use engine::FilebenchWorkload;
pub use parse::{parse_duration, parse_model, parse_size, ParseModelError};
pub use spec::{
    AccessPattern, FileSpec, FlowopKind, FlowopSpec, ModelSpec, ProcessSpec, ThreadSpec,
};

/// The Filebench OLTP "personality": "a model that tries to emulate an
/// Oracle database server generating I/Os under an online transaction
/// processing workload" (§4.1), with the paper's parameter changes applied
/// (10 GiB total filesize, 1 GiB logfile).
///
/// Shape: a pool of random 4 KiB readers (table-space reads), database
/// writers issuing random 4 KiB writes, and a log writer appending
/// synchronously — "table space reads and updates are intermixed with log
/// writes resulting in a lot of randomness in the I/O stream".
pub fn oltp_model() -> String {
    "\
# Filebench OLTP personality (paper configuration: filesize=10g, logfilesize=1g)
define file name=datafile,size=10g
define file name=logfile,size=1g

define process name=oltp,instances=1 {
  thread name=shadow-reader,instances=20 {
    flowop read name=dbread,file=datafile,iosize=4k,random
    flowop think name=reader-think,value=3ms
  }
  thread name=db-writer,instances=10 {
    flowop write name=dbwrite,file=datafile,iosize=4k,random,sync
    flowop think name=writer-think,value=10ms
  }
  thread name=log-writer,instances=1 {
    flowop append name=logwrite,file=logfile,iosize=4k,sync
    flowop think name=log-think,value=2ms
  }
}
"
    .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oltp_model_parses() {
        let spec = parse_model(&oltp_model()).unwrap();
        assert_eq!(spec.files.len(), 2);
        assert_eq!(spec.file("datafile").unwrap().size, 10 * 1024 * 1024 * 1024);
        assert_eq!(spec.file("logfile").unwrap().size, 1024 * 1024 * 1024);
        assert_eq!(spec.total_threads(), 31);
    }
}
