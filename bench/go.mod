module agl/bench

go 1.24

require agl v0.0.0

replace agl => ../
