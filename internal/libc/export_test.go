package libc

// ReadFileStaged is the longest file ReadFile returns in an array of
// exactly its length.
const ReadFileStaged = (readFileStage - 1) * xferBufSize
